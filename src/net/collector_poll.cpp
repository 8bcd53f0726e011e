#include "net/collector_poll.h"

#include <poll.h>
#include <sys/socket.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "net/collector_metrics.h"
#include "net/wire.h"
#include "obs/health.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "telemetry/binlog.h"

namespace autosens::net {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_between(Clock::time_point earlier, Clock::time_point later) noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(later - earlier).count();
}

}  // namespace

struct PollCollector::Connection {
  Socket socket;
  FrameDecoder decoder;
  std::uint64_t session_id = 0;  ///< 0 until (unless) a hello arrives.
  bool saw_goodbye = false;
  bool received_bytes = false;
  bool malformed = false;  ///< Drop decided inside drain_frames.
  std::size_t reported_resyncs = 0;
  std::size_t reported_skipped = 0;
  Clock::time_point last_activity;
};

PollCollector::PollCollector(const CollectorOptions& options)
    : options_(options), ops_(options.ops) {
  listener_ = listen_tcp(options.port, port_);
  // Introspection plane: /healthz readiness plus a /statusz section with
  // per-session state, keyed by port so concurrent collectors coexist.
  health_name_ = "poll-collector:" + std::to_string(port_);
  obs::Health::global().set_component(
      health_name_, true, "listening on 127.0.0.1:" + std::to_string(port_));
  status_section_id_ = obs::StatusRegistry::global().add_section(
      health_name_, [this] { return status_json(); });
  obs::log_debug("poll_collector.listen", {{"port", port_}});
}

PollCollector::~PollCollector() {
  obs::StatusRegistry::global().remove_section(status_section_id_);
  obs::Health::global().remove_component(health_name_);
}

std::string PollCollector::status_json() const {
  const CollectorStats s = stats();
  std::ostringstream out;
  out << "{\"port\": " << port_ << ", \"records\": " << s.records
      << ", \"frames\": " << s.frames << ", \"bytes\": " << s.bytes
      << ", \"dedup_hits\": " << s.duplicate_frames
      << ", \"resyncs\": " << s.resyncs
      << ", \"resync_bytes\": " << s.resync_bytes
      << ", \"dropped_connections\": " << s.dropped_connections
      << ", \"sessions_active\": " << s.sessions_active << ", \"sessions\": {";
  std::lock_guard lock(sessions_mutex_);
  bool first = true;
  for (const auto& [id, session] : sessions_) {
    if (!first) out << ", ";
    first = false;
    // Session ids can exceed 2^53: emit as strings to stay JSON-exact.
    out << "\"" << id << "\": {\"last_seq\": " << session.last_seq
        << ", \"goodbye\": " << (session.said_goodbye ? "true" : "false")
        << ", \"connections\": " << session.connections_seen << "}";
  }
  out << "}}";
  return out.str();
}

CollectorStats PollCollector::stats() const noexcept {
  return CollectorStats{
      .connections = static_cast<std::size_t>(stats_.connections.get()),
      .frames = static_cast<std::size_t>(stats_.frames.get()),
      .records = static_cast<std::size_t>(stats_.records.get()),
      .flushes = static_cast<std::size_t>(stats_.flushes.get()),
      .dropped_connections = static_cast<std::size_t>(stats_.dropped_connections.get()),
      .bytes = static_cast<std::size_t>(stats_.bytes.get()),
      .backpressure_reads = static_cast<std::size_t>(stats_.backpressure_reads.get()),
      .resyncs = static_cast<std::size_t>(stats_.resyncs.get()),
      .resync_bytes = static_cast<std::size_t>(stats_.resync_bytes.get()),
      .duplicate_frames = static_cast<std::size_t>(stats_.duplicate_frames.get()),
      .sessions = static_cast<std::size_t>(stats_.sessions.get()),
      .sessions_active = static_cast<std::size_t>(stats_.sessions.get() -
                                                  stats_.sessions_closed.get()),
      .session_reconnects = static_cast<std::size_t>(stats_.session_reconnects.get()),
      .deadline_drops = static_cast<std::size_t>(stats_.deadline_drops.get()),
      .interrupted_connections =
          static_cast<std::size_t>(stats_.interrupted_connections.get()),
  };
}

std::size_t PollCollector::drain_frames(Connection& connection) {
  // One serve thread mutates sessions_; the lock only orders it against the
  // /statusz provider reading from the obs HTTP thread, so it is
  // uncontended on the hot path.
  std::lock_guard sessions_lock(sessions_mutex_);
  std::size_t goodbyes = 0;
  while (auto frame = connection.decoder.next()) {
    stats_.frames.add();
    collector_metrics().frames.inc();

    if (frame->type == FrameType::kHello) {
      const auto id = parse_hello(frame->payload);
      if (!id || *id == 0) {
        obs::log_info("collector.drop_connection", {{"reason", "bad_hello"}});
        connection.malformed = true;
        return goodbyes;
      }
      connection.session_id = *id;
      auto& session = sessions_[*id];
      ++session.connections_seen;
      if (session.connections_seen == 1) {
        stats_.sessions.add();
        collector_metrics().sessions.inc();
        collector_metrics().sessions_active.add(1.0);
      } else {
        stats_.session_reconnects.add();
        collector_metrics().session_reconnects.inc();
        if (session.connections_seen > options_.max_session_reconnects + 1) {
          obs::log_info("collector.drop_connection",
                        {{"reason", "reconnect_budget"}, {"session", *id}});
          connection.malformed = true;
          return goodbyes;
        }
        obs::log_debug("collector.session_reconnect",
                       {{"session", *id}, {"count", session.connections_seen - 1}});
      }
      // Extended hello: adopt the emitter's trace context so this
      // collector's spans join the same distributed trace.
      if (const auto trace = parse_hello_trace(frame->payload)) {
        session.trace_span = trace->span_id;
        if (trace->trace_id != 0) {
          obs::Tracer::global().set_trace_id(trace->trace_id);
        }
        obs::Span hello_span("net.hello");
        hello_span.link_parent(trace->span_id);
        hello_span.attr("reconnect",
                        static_cast<std::int64_t>(session.connections_seen - 1));
      }
      continue;
    }

    Session* session =
        connection.session_id != 0 ? &sessions_[connection.session_id] : nullptr;
    if (session != nullptr && frame->seq != 0) {
      if (frame->seq <= session->last_seq) {
        // A retransmission of a frame that did arrive the first time: the
        // emitter could not know, the dedup is what makes its retry safe.
        stats_.duplicate_frames.add();
        collector_metrics().dedup_hits.inc();
        obs::Span dedup_span("net.dedup_drop");
        dedup_span.link_parent(frame->span_id != 0 ? frame->span_id
                                                   : session->trace_span);
        dedup_span.attr("seq", static_cast<std::int64_t>(frame->seq));
        if (frame->type == FrameType::kGoodbye) connection.saw_goodbye = true;
        continue;
      }
      session->last_seq = frame->seq;
    }

    switch (frame->type) {
      case FrameType::kData: {
        // Decode span parented on the emitter-side send span carried by the
        // frame (falling back to the session's connect span): the stitch
        // that makes the replay|collect Chrome trace one connected tree.
        obs::Span decode_span("net.decode_frame");
        decode_span.link_parent(frame->span_id != 0
                                    ? frame->span_id
                                    : (session != nullptr ? session->trace_span : 0));
        decode_span.attr("seq", static_cast<std::int64_t>(frame->seq));
        try {
          const auto records = telemetry::codec::decode_batch(frame->payload);
          stats_.records.add(records.size());
          collector_metrics().records.inc(records.size());
          decode_span.attr("records", static_cast<std::int64_t>(records.size()));
          for (const auto& r : records) dataset_.add(r);
        } catch (const std::runtime_error& error) {
          // CRC-valid but undecodable payload: a sender bug, not line
          // noise. Resync cannot help; drop the connection.
          obs::log_info("collector.drop_connection",
                        {{"reason", "bad_payload"}, {"error", error.what()}});
          connection.malformed = true;
          return goodbyes;
        }
        break;
      }
      case FrameType::kFlush:
        stats_.flushes.add();
        collector_metrics().flushes.inc();
        break;
      case FrameType::kGoodbye:
        connection.saw_goodbye = true;
        if (session != nullptr) {
          if (!session->said_goodbye) {
            session->said_goodbye = true;
            stats_.sessions_closed.add();
            collector_metrics().sessions_active.add(-1.0);
            ++goodbyes;
          }
        } else {
          ++goodbyes;
        }
        break;
      case FrameType::kHello:
        break;  // handled above
    }
  }

  // Resync accounting: export the decoder's deltas and enforce the garbage
  // budget — a peer streaming pure noise is cut off, not buffered forever.
  const std::size_t resyncs = connection.decoder.resyncs();
  if (resyncs > connection.reported_resyncs) {
    const auto delta = resyncs - connection.reported_resyncs;
    stats_.resyncs.add(delta);
    collector_metrics().resyncs.inc(delta);
    connection.reported_resyncs = resyncs;
  }
  const std::size_t skipped = connection.decoder.skipped_bytes();
  if (skipped > connection.reported_skipped) {
    const auto delta = skipped - connection.reported_skipped;
    stats_.resync_bytes.add(delta);
    collector_metrics().resync_bytes.inc(delta);
    connection.reported_skipped = skipped;
  }
  if (skipped > options_.max_resync_bytes) {
    obs::log_info("collector.drop_connection",
                  {{"reason", "resync_budget"}, {"skipped_bytes", skipped}});
    connection.malformed = true;
  }
  return goodbyes;
}

bool PollCollector::serve_until_goodbye(std::size_t expected_goodbyes, int timeout_ms) {
  SocketOps& ops = ops_ != nullptr ? *ops_ : real_socket_ops();
  std::vector<Connection> connections;
  std::size_t goodbyes = 0;
  auto last_any_activity = Clock::now();
  collector_metrics().idle_timeout_outcome.set(0.0);

  while (goodbyes < expected_goodbyes) {
    const auto now = Clock::now();

    // Per-connection read deadlines run off the poll clock: a connection
    // silent past the deadline is cut so one stalled emitter cannot hold
    // the collection open forever.
    if (options_.read_deadline_ms >= 0) {
      for (std::size_t i = connections.size(); i-- > 0;) {
        if (ms_between(connections[i].last_activity, now) >= options_.read_deadline_ms) {
          stats_.deadline_drops.add();
          collector_metrics().deadline_drops.inc();
          stats_.dropped_connections.add();
          collector_metrics().drops.inc();
          obs::log_info("collector.drop_connection",
                        {{"reason", "read_deadline"},
                         {"session", connections[i].session_id},
                         {"deadline_ms", options_.read_deadline_ms}});
          connections.erase(connections.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }

    int poll_timeout = timeout_ms;
    if (timeout_ms >= 0) {
      const std::int64_t idle_ms = ms_between(last_any_activity, now);
      if (idle_ms >= timeout_ms) {
        collector_metrics().idle_timeout_outcome.set(1.0);
        obs::log_info("collector.idle_timeout", {{"timeout_ms", timeout_ms},
                                                 {"goodbyes", goodbyes},
                                                 {"expected", expected_goodbyes}});
        return false;  // idle timeout
      }
      poll_timeout = static_cast<int>(timeout_ms - idle_ms);
    }
    if (options_.read_deadline_ms >= 0 && !connections.empty()) {
      std::int64_t nearest = options_.read_deadline_ms;
      for (const auto& connection : connections) {
        nearest = std::min(
            nearest, options_.read_deadline_ms - ms_between(connection.last_activity, now));
      }
      const int wake = static_cast<int>(std::max<std::int64_t>(nearest, 1));
      poll_timeout = poll_timeout < 0 ? wake : std::min(poll_timeout, wake);
    }

    std::vector<pollfd> fds;
    fds.reserve(connections.size() + 1);
    fds.push_back({.fd = listener_.fd(), .events = POLLIN, .revents = 0});
    for (const auto& connection : connections) {
      fds.push_back({.fd = connection.socket.fd(), .events = POLLIN, .revents = 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), poll_timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw SocketError("poll()", errno);
    }
    if (ready == 0) continue;  // re-evaluate deadlines and the idle timer
    last_any_activity = Clock::now();

    // New connection?
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listener_.fd(), nullptr, nullptr);
      if (fd >= 0) {
        Connection connection;
        connection.socket = Socket(fd);
        connection.last_activity = last_any_activity;
        connections.push_back(std::move(connection));
        stats_.connections.add();
        collector_metrics().connections.inc();
        obs::log_debug("collector.accept", {{"fd", fd}});
      } else if (errno != EINTR && errno != EAGAIN) {
        throw SocketError("accept()", errno);
      }
    }

    // Data on existing connections. Iterate over the snapshot taken before
    // the accept; indices into `fds` are connection index + 1.
    std::vector<std::size_t> to_close;
    const std::size_t polled = fds.size() - 1;
    for (std::size_t i = 0; i < polled; ++i) {
      if (!(fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      auto& connection = connections[i];
      std::array<std::uint8_t, 16384> buffer;
      const std::int64_t n =
          ops.recv(connection.socket.fd(), buffer.data(), buffer.size());
      if (n > 0) {
        stats_.bytes.add(static_cast<std::uint64_t>(n));
        collector_metrics().bytes.inc(static_cast<std::uint64_t>(n));
        if (static_cast<std::size_t>(n) == buffer.size()) {
          // A full buffer means the kernel queue still holds data — the
          // ingest loop is running behind the emitters.
          stats_.backpressure_reads.add();
          collector_metrics().backpressure.inc();
        }
        connection.received_bytes = true;
        connection.last_activity = last_any_activity;
        connection.decoder.feed(
            std::span<const std::uint8_t>(buffer.data(), static_cast<std::size_t>(n)));
        goodbyes += drain_frames(connection);
        if (connection.malformed) {
          stats_.dropped_connections.add();
          collector_metrics().drops.inc();
          to_close.push_back(i);
        } else if (connection.saw_goodbye) {
          to_close.push_back(i);
        }
      } else if (n == 0) {
        // Peer closed. Clean after a goodbye; a session connection that
        // ends without one is interrupted, whether or not a reconnect has
        // already said goodbye; a sessionless stream that sent bytes but
        // never finished a goodbye is a protocol failure.
        if (!connection.saw_goodbye) {
          if (connection.session_id != 0) {
            stats_.interrupted_connections.add();
            collector_metrics().interrupted.inc();
            obs::log_debug("collector.interrupted",
                           {{"session", connection.session_id},
                            {"pending_bytes", connection.decoder.pending_bytes()}});
          } else if (connection.session_id == 0 && connection.received_bytes) {
            stats_.dropped_connections.add();
            collector_metrics().drops.inc();
            obs::log_info("collector.drop_connection", {{"reason", "no_goodbye"}});
          }
        }
        to_close.push_back(i);
      } else {
        const int err = static_cast<int>(-n);
        if (err != EINTR && err != EAGAIN && err != EWOULDBLOCK) {
          stats_.dropped_connections.add();
          collector_metrics().drops.inc();
          obs::log_info("collector.drop_connection",
                        {{"reason", "transport"}, {"errno", err}});
          to_close.push_back(i);
        }
      }
    }
    // Close back-to-front so indices stay valid.
    for (auto it = to_close.rbegin(); it != to_close.rend(); ++it) {
      connections.erase(connections.begin() + static_cast<std::ptrdiff_t>(*it));
    }
  }
  return true;
}

telemetry::Dataset PollCollector::take_dataset() {
  dataset_.sort_by_time();
  return std::exchange(dataset_, telemetry::Dataset{});
}

std::size_t PollCollector::checkpoint(const std::string& path) const {
  telemetry::Dataset copy = dataset_;
  copy.sort_by_time();
  telemetry::write_binlog_file(path, copy);
  obs::log_info("collector.checkpoint", {{"path", path}, {"records", copy.size()}});
  return copy.size();
}

PollCollectorThread::PollCollectorThread(std::size_t expected_goodbyes,
                                         const CollectorOptions& options, int timeout_ms)
    : collector_(options), port_(collector_.port()) {
  thread_ = std::thread([this, expected_goodbyes, timeout_ms] {
    const bool complete = collector_.serve_until_goodbye(expected_goodbyes, timeout_ms);
    complete_.store(complete, std::memory_order_release);
    done_.store(true, std::memory_order_release);
  });
}

PollCollectorThread::~PollCollectorThread() {
  if (thread_.joinable()) thread_.join();
}

telemetry::Dataset PollCollectorThread::join() {
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mutex_);
  return collector_.take_dataset();
}

CollectorStats PollCollectorThread::stats() const {
  // No lock needed: PollCollector::stats() reads relaxed atomics; this is
  // safe while the serve loop is live.
  return collector_.stats();
}

}  // namespace autosens::net
