#include "net/shard.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <utility>

#include "obs/log.h"

namespace autosens::net {
namespace {

using Clock = std::chrono::steady_clock;

/// epoll user-data tags for the shard's singleton fds. Connection serials
/// start at 1, so these cannot collide.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kEventFdTag = ~std::uint64_t{0};
constexpr std::uint64_t kUdpTag = ~std::uint64_t{0} - 1;

/// Consecutive no-progress re-polls before a connection falls off the
/// retry list. Bounds the cost of the edge-loss defense: an injected
/// EAGAIN burst shorter than this cannot permanently mask kernel bytes.
constexpr std::size_t kRetryRounds = 64;

/// Read size per recv; a read that fills the whole buffer counts as
/// backpressure.
constexpr std::size_t kReadBytes = 16384;

/// Datagrams per recvmmsg call.
constexpr std::size_t kRecvmmsgBatch = 32;

/// Per-datagram receive buffer; comfortably above the emitter's
/// max_datagram_bytes so datagrams are never truncated by the reader.
constexpr std::size_t kDatagramBufBytes = 9216;

std::int64_t ms_between(Clock::time_point earlier, Clock::time_point later) noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(later - earlier).count();
}

}  // namespace

CollectorShard::CollectorShard(const ShardOptions& options, SpscQueue<ShardEvent>& out,
                               std::function<void()> notify)
    : options_(options),
      out_(out),
      notify_(std::move(notify)),
      controls_(256) {
  if (options_.ops == nullptr) options_.ops = &real_socket_ops();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw SocketError("epoll_create1()", errno);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) {
    const int saved = errno;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw SocketError("eventfd()", saved);
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kEventFdTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
    throw SocketError("epoll_ctl(eventfd)", errno);
  }

  const std::string label = "{shard=\"" + std::to_string(options_.index) + "\"}";
  metric_connections_ = &obs::registry().counter(
      "autosens_net_shard_connections" + label,
      "TCP connections owned by this collector shard");
  metric_wakeups_ = &obs::registry().counter(
      "autosens_net_epoll_wakeups_total" + label,
      "epoll_wait returns (including timeouts and spurious wakeups)");
  metric_queue_depth_ = &obs::registry().gauge(
      "autosens_net_spsc_queue_depth" + label,
      "Shard-to-spine events queued (sampled at push)");
}

CollectorShard::~CollectorShard() {
  stop();
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void CollectorShard::set_tcp_listener(Socket listener) {
  tcp_listener_ = std::move(listener);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, tcp_listener_.fd(), &ev) < 0) {
    throw SocketError("epoll_ctl(listener)", errno);
  }
}

void CollectorShard::set_udp_socket(Socket socket) {
  udp_socket_ = std::move(socket);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kUdpTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, udp_socket_.fd(), &ev) < 0) {
    throw SocketError("epoll_ctl(udp)", errno);
  }
}

void CollectorShard::start() {
  if (started_.exchange(true)) return;
  thread_ = std::thread([this] { run(); });
}

void CollectorShard::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
}

void CollectorShard::wake() {
  if (event_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(event_fd_, &one, sizeof one);
  }
}

void CollectorShard::push_control(Control control) {
  while (!controls_.try_push(std::move(control))) {
    if (stop_.load(std::memory_order_acquire)) return;
    std::this_thread::yield();
  }
  wake();
}

void CollectorShard::request_close(std::uint64_t conn) {
  push_control({.kind = Control::Kind::kClose, .conn = conn});
}

void CollectorShard::request_sync() { push_control({.kind = Control::Kind::kSync}); }

ShardStats CollectorShard::stats() const noexcept {
  return ShardStats{
      .connections = static_cast<std::size_t>(counters_.connections.get()),
      .epoll_wakeups = static_cast<std::size_t>(counters_.epoll_wakeups.get()),
      .eagain_retries = static_cast<std::size_t>(counters_.eagain_retries.get()),
      .spsc_stalls = static_cast<std::size_t>(counters_.spsc_stalls.get()),
      .queue_depth = out_.size_approx(),
      .udp_datagrams = static_cast<std::size_t>(counters_.udp_datagrams.get()),
      .udp_rejected = static_cast<std::size_t>(counters_.udp_rejected.get()),
  };
}

int CollectorShard::loop_timeout_ms() const {
  int timeout = 50;  // upper bound: stop-flag and control-queue check cadence
  if (!retry_list_.empty()) return 1;
  if (options_.read_deadline_ms >= 0 && !deadline_order_.empty()) {
    const auto& head = connections_.at(deadline_order_.front());
    const std::int64_t remaining =
        options_.read_deadline_ms - ms_between(head.last_activity, Clock::now());
    timeout = static_cast<int>(std::clamp<std::int64_t>(remaining, 1, timeout));
  }
  return timeout;
}

void CollectorShard::push_event(ShardEvent event) {
  event.shard = options_.index;
  while (!out_.try_push(std::move(event))) {
    counters_.spsc_stalls.add();
    if (stop_.load(std::memory_order_acquire)) return;
    // Queue full: the spine is behind. Wake it and yield — dropping the
    // event is not an option, it carries decoded frames.
    notify_();
    std::this_thread::yield();
  }
  metric_queue_depth_->set(static_cast<double>(out_.size_approx()));
  notify_();
}

void CollectorShard::touch(Connection& conn) {
  conn.last_activity = Clock::now();
  deadline_order_.splice(deadline_order_.end(), deadline_order_, conn.deadline_pos);
}

void CollectorShard::add_connection(int fd) {
  const std::uint64_t serial = next_serial_++;
  Connection conn;
  conn.socket = Socket(fd);
  conn.serial = serial;
  conn.last_activity = Clock::now();
  deadline_order_.push_back(serial);
  conn.deadline_pos = std::prev(deadline_order_.end());
  auto [it, inserted] = connections_.emplace(serial, std::move(conn));

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = serial;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    deadline_order_.erase(it->second.deadline_pos);
    connections_.erase(it);
    return;
  }
  counters_.connections.add();
  metric_connections_->inc();
  ShardEvent open_event;
  open_event.kind = ShardEvent::Kind::kOpen;
  open_event.conn = serial;
  push_event(std::move(open_event));
  // A freshly-accepted nonblocking socket may already hold bytes and its
  // edge predates the epoll registration: drain it once now.
  if (auto conn_it = connections_.find(serial); conn_it != connections_.end()) {
    drain_connection(conn_it->second);
  }
}

void CollectorShard::handle_accept() {
  if (!tcp_listener_.valid()) return;
  for (;;) {
    const int fd = options_.ops->accept4_fd(tcp_listener_.fd());
    if (fd >= 0) {
      add_connection(fd);
      continue;
    }
    const int err = -fd;
    if (err == EINTR || err == ECONNABORTED) continue;
    // EAGAIN: accept queue drained (or an injected stall — the
    // unconditional re-accept each loop iteration is the defense).
    break;
  }
}

void CollectorShard::emit_frames(Connection& conn) {
  ShardEvent event;
  event.kind = ShardEvent::Kind::kFrames;
  event.conn = conn.serial;
  while (auto frame = conn.decoder.next()) event.frames.push_back(std::move(*frame));

  const std::size_t resyncs = conn.decoder.resyncs();
  if (resyncs > conn.reported_resyncs) {
    event.resyncs_delta = resyncs - conn.reported_resyncs;
    conn.reported_resyncs = resyncs;
  }
  const std::size_t skipped = conn.decoder.skipped_bytes();
  if (skipped > conn.reported_skipped) {
    event.skipped_delta = skipped - conn.reported_skipped;
    conn.reported_skipped = skipped;
  }
  if (!event.frames.empty() || event.resyncs_delta > 0 || event.skipped_delta > 0) {
    push_event(std::move(event));
  }
  if (skipped > options_.max_resync_bytes) {
    close_connection(conn.serial, ShardEvent::EofReason::kResyncBudget, 0, true);
  }
}

bool CollectorShard::drain_connection(Connection& conn) {
  std::size_t bytes = 0;
  std::size_t backpressure = 0;
  bool closed = false;
  ShardEvent::EofReason reason = ShardEvent::EofReason::kClean;
  int close_err = 0;

  for (;;) {
    std::array<std::uint8_t, kReadBytes> buffer;
    const std::int64_t n = options_.ops->recv(conn.socket.fd(), buffer.data(), buffer.size());
    if (n > 0) {
      bytes += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) == buffer.size()) ++backpressure;
      conn.received_bytes = true;
      conn.decoder.feed(
          std::span<const std::uint8_t>(buffer.data(), static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      closed = true;
      break;
    }
    const int err = static_cast<int>(-n);
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK) break;
    closed = true;
    reason = ShardEvent::EofReason::kTransport;
    close_err = err;
    break;
  }

  if (bytes > 0) {
    touch(conn);
    conn.retry_rounds = 0;
    ShardEvent delta;
    delta.kind = ShardEvent::Kind::kFrames;
    delta.conn = conn.serial;
    delta.bytes_delta = bytes;
    delta.backpressure_delta = backpressure;
    delta.received_bytes = true;
    // Bytes and frames ride one event so the spine sees them atomically.
    while (auto frame = conn.decoder.next()) delta.frames.push_back(std::move(*frame));
    const std::size_t resyncs = conn.decoder.resyncs();
    if (resyncs > conn.reported_resyncs) {
      delta.resyncs_delta = resyncs - conn.reported_resyncs;
      conn.reported_resyncs = resyncs;
    }
    const std::size_t skipped = conn.decoder.skipped_bytes();
    if (skipped > conn.reported_skipped) {
      delta.skipped_delta = skipped - conn.reported_skipped;
      conn.reported_skipped = skipped;
    }
    push_event(std::move(delta));
    if (conn.decoder.skipped_bytes() > options_.max_resync_bytes) {
      close_connection(conn.serial, ShardEvent::EofReason::kResyncBudget, 0, true);
      return false;
    }
  }

  if (closed) {
    close_connection(conn.serial, reason, close_err, true);
    return false;
  }

  // Ended at EAGAIN. Under edge triggering a lying EAGAIN (fault injection)
  // would strand kernel bytes with no future edge, so the connection earns
  // a bounded number of re-polls; progress resets the budget above.
  if (bytes == 0) ++conn.retry_rounds;
  if (conn.retry_rounds < kRetryRounds &&
      std::find(retry_list_.begin(), retry_list_.end(), conn.serial) ==
          retry_list_.end()) {
    retry_list_.push_back(conn.serial);
  }
  return true;
}

void CollectorShard::close_connection(std::uint64_t serial, ShardEvent::EofReason reason,
                                      int err, bool emit_eof) {
  auto it = connections_.find(serial);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (emit_eof) {
    ShardEvent event;
    event.kind = ShardEvent::Kind::kEof;
    event.conn = serial;
    event.reason = reason;
    event.err = err;
    event.received_bytes = conn.received_bytes;
    event.pending_bytes = conn.decoder.pending_bytes();
    push_event(std::move(event));
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.socket.fd(), nullptr);
  deadline_order_.erase(conn.deadline_pos);
  connections_.erase(it);
}

void CollectorShard::reap_deadlines() {
  if (options_.read_deadline_ms < 0) return;
  const auto now = Clock::now();
  while (!deadline_order_.empty()) {
    auto it = connections_.find(deadline_order_.front());
    if (it == connections_.end()) {
      deadline_order_.pop_front();  // defensive; close keeps these in sync
      continue;
    }
    if (ms_between(it->second.last_activity, now) < options_.read_deadline_ms) break;
    // Flush whatever decoded before cutting: deadline drops keep
    // already-decoded records.
    emit_frames(it->second);
    close_connection(it->first, ShardEvent::EofReason::kDeadline, 0, true);
  }
}

void CollectorShard::process_controls() {
  Control control;
  while (controls_.try_pop(control)) {
    if (control.kind == Control::Kind::kSync) {
      ++sync_pending_;
      sync_drain_needed_ = true;
      continue;
    }
    // Spine-initiated close (malformed stream or post-goodbye): the spine
    // already accounted for it, so no kEof echo. Unknown serial = the
    // connection EOF'd first; nothing to do.
    close_connection(control.conn, ShardEvent::EofReason::kClean, 0, false);
  }
}

void CollectorShard::drain_udp() {
  if (!udp_socket_.valid()) return;
  std::vector<std::vector<std::uint8_t>> buffers(
      kRecvmmsgBatch, std::vector<std::uint8_t>(kDatagramBufBytes));
  std::vector<iovec> iovs(kRecvmmsgBatch);
  std::vector<mmsghdr> msgs(kRecvmmsgBatch);

  for (;;) {
    for (std::size_t i = 0; i < kRecvmmsgBatch; ++i) {
      iovs[i] = {.iov_base = buffers[i].data(), .iov_len = buffers[i].size()};
      msgs[i] = {};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int n = options_.ops->recvmmsg(udp_socket_.fd(), msgs.data(),
                                         static_cast<unsigned>(kRecvmmsgBatch));
    if (n < 0) {
      const int err = -n;
      if (err == EINTR) continue;
      break;  // EAGAIN (drained or injected stall; re-entered next iteration)
    }
    if (n == 0) break;

    ShardEvent event;
    event.kind = ShardEvent::Kind::kFrames;
    event.transport = Transport::kUdp;
    for (int i = 0; i < n; ++i) {
      const std::size_t len = msgs[static_cast<std::size_t>(i)].msg_len;
      if (len == 0) continue;
      event.bytes_delta += len;
      const std::span<const std::uint8_t> datagram(buffers[static_cast<std::size_t>(i)].data(),
                                                   len);
      // Fresh decoder per datagram: datagrams are independent framing
      // units, so damage never smears across datagram boundaries.
      FrameDecoder decoder(kDatagramBufBytes);
      decoder.feed(datagram);
      auto first = decoder.next();
      if (!first || first->type != FrameType::kHello || !parse_hello(first->payload)) {
        // No decodable leading hello (damaged or alien datagram): discard
        // whole. The datagram-seq gap it leaves is the loss accounting.
        ++event.udp_rejected_delta;
        counters_.udp_rejected.add();
        event.skipped_delta += len;
        continue;
      }
      ++event.udp_datagrams_delta;
      counters_.udp_datagrams.add();
      event.frames.push_back(std::move(*first));
      while (auto frame = decoder.next()) event.frames.push_back(std::move(*frame));
      event.resyncs_delta += decoder.resyncs();
      event.skipped_delta += decoder.skipped_bytes();
    }
    if (!event.frames.empty() || event.bytes_delta > 0) {
      event.received_bytes = true;
      push_event(std::move(event));
    }
  }
}

void CollectorShard::run() {
  std::array<epoll_event, 64> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = options_.ops->epoll_wait(epoll_fd_, events.data(),
                                           static_cast<int>(events.size()),
                                           loop_timeout_ms());
    counters_.epoll_wakeups.add();
    metric_wakeups_->inc();
    if (stop_.load(std::memory_order_acquire)) break;
    if (n < 0) {
      if (-n == EINTR) continue;
      obs::log_info("shard.epoll_error", {{"shard", options_.index}, {"errno", -n}});
      break;
    }

    bool event_fd_signaled = false;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      if (tag == kEventFdTag) {
        event_fd_signaled = true;
      } else if (tag == kListenerTag || tag == kUdpTag) {
        // Handled unconditionally below.
      } else if (auto it = connections_.find(tag); it != connections_.end()) {
        drain_connection(it->second);
      }
    }
    if (event_fd_signaled) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const auto r = ::read(event_fd_, &drained, sizeof drained);
    }

    process_controls();
    // Accept and UDP drains run every iteration, not just on their edges:
    // both end at EAGAIN in a handful of syscalls, and the unconditional
    // retry is what makes injected EAGAIN storms on accept4/recvmmsg unable
    // to strand a pending connection or datagram.
    handle_accept();
    drain_udp();

    if (!retry_list_.empty()) {
      std::vector<std::uint64_t> retries = std::move(retry_list_);
      retry_list_.clear();
      counters_.eagain_retries.add(retries.size());
      for (const std::uint64_t serial : retries) {
        if (auto it = connections_.find(serial); it != connections_.end()) {
          drain_connection(it->second);
        }
      }
    }
    reap_deadlines();

    if (sync_pending_ > 0) {
      // Settle barrier. Any byte that reached this shard's kernel sockets
      // before the spine requested the sync is readable *now*, so one
      // direct drain of every connection (not gated on epoll readiness —
      // injected spurious wakeups can mask edges) plus the unconditional
      // drains above captures it. The ack is withheld while the EAGAIN
      // retry list is busy: an injected storm may still be masking bytes,
      // and the bounded re-polls must run dry first.
      if (sync_drain_needed_) {
        sync_drain_needed_ = false;
        std::vector<std::uint64_t> serials;
        serials.reserve(connections_.size());
        for (const auto& [serial, conn] : connections_) serials.push_back(serial);
        for (const std::uint64_t serial : serials) {
          if (auto it = connections_.find(serial); it != connections_.end()) {
            drain_connection(it->second);
          }
        }
        drain_udp();
      }
      if (retry_list_.empty()) {
        for (; sync_pending_ > 0; --sync_pending_) {
          ShardEvent sync;
          sync.kind = ShardEvent::Kind::kSync;
          push_event(std::move(sync));
        }
      }
    }
  }
}

}  // namespace autosens::net
