#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/confounder_time.h"
#include "core/pipeline.h"
#include "core/preference.h"
#include "core/slices.h"
#include "core/store_analyze.h"
#include "core/unbiased.h"
#include "net/collector.h"
#include "net/emitter.h"
#include "obs/trace.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/binlog.h"
#include "telemetry/csv.h"
#include "telemetry/filter.h"
#include "telemetry/store/store.h"
#include "telemetry/store/writer.h"
#include "telemetry/validate.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = autosens::core;
namespace net = autosens::net;
namespace obs = autosens::obs;
namespace telemetry = autosens::telemetry;
using telemetry::ActionType;
using telemetry::Dataset;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr ActionType kAnalyzedAction = ActionType::kSelectMail;

/// The generated log, cut to its first kMediumRows rows in time order at
/// medium scale. Seeds generate 2.0-2.17 M rows; without the cut, iteration
/// times would vary +-4 % from seed to seed with input size alone.
Dataset generate(const WorkloadConfig& config) {
  constexpr std::size_t kMediumRows = 1'950'000;
  const auto scale = config.tiny ? autosens::simulate::Scale::kTiny
                                 : autosens::simulate::Scale::kMedium;
  Dataset generated = autosens::simulate::WorkloadGenerator(
                          autosens::simulate::paper_config(scale, config.seed))
                          .generate()
                          .dataset;
  if (config.tiny || generated.size() <= kMediumRows) return generated;
  Dataset cut;
  cut.append_columns(generated.times().first(kMediumRows),
                     generated.latencies().first(kMediumRows),
                     generated.user_ids().first(kMediumRows),
                     generated.actions().first(kMediumRows),
                     generated.user_classes().first(kMediumRows),
                     generated.statuses().first(kMediumRows));
  return cut;
}

/// The CLI defaults; threads = 0 sizes every pool from the hardware.
core::AutoSensOptions flow_options() { return {}; }

core::AutoSensOptions oracle_options() {
  core::AutoSensOptions options;
  options.threads = 1;
  return options;
}

// --- Byte images of results: every field, doubles by their bits. ---------

template <typename T>
void put(std::string& out, const T& value) {
  static_assert(std::is_arithmetic_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
void put(std::string& out, std::span<const T> values) {
  put(out, values.size());
  out.append(reinterpret_cast<const char*>(values.data()), values.size_bytes());
}

void put(std::string& out, const core::PreferenceResult& p) {
  put<double>(out, p.latency_ms);
  put<double>(out, p.raw_ratio);
  put<double>(out, p.smoothed);
  put<double>(out, p.normalized);
  put<char>(out, p.valid);
  put(out, p.reference_latency_ms);
  put(out, p.biased_samples);
  put(out, p.support_begin);
  put(out, p.support_end);
}

void put(std::string& out, const autosens::stats::Histogram& h) {
  put(out, h.lo());
  put(out, h.bin_width());
  put(out, h.counts());
  put(out, h.total_weight());
}

void put(std::string& out, const core::AnalysisResult& r) {
  put(out, r.preference);
  put(out, r.biased);
  put(out, r.unbiased);
  put(out, r.slots.size());
  for (const auto& slot : r.slots) {
    put(out, slot.slot);
    put(out, slot.records);
    put(out, slot.total_time_ms);
    put(out, slot.alpha);
    put(out, slot.alpha_from_fallback);
  }
}

void put(std::string& out, const std::vector<core::NamedPreference>& curves) {
  put(out, curves.size());
  for (const auto& curve : curves) {
    put<char>(out, curve.name);
    put(out, curve.records);
    put(out, curve.result);
  }
}

/// The store_analyze.h contract fields of one window: bounds, rows analyzed
/// and the curve. Partition and byte counts have no in-memory counterpart.
void put_window(std::string& out, std::int64_t begin, std::int64_t end, std::size_t records,
                const std::optional<core::PreferenceResult>& preference) {
  put(out, begin);
  put(out, end);
  put(out, records);
  put(out, preference.has_value());
  if (preference) put(out, *preference);
}

// --- Traced flows: the same result composed from its public parts. -------

/// analyze_detailed() as TimeNormalizer -> unbiased_histogram ->
/// compute_preference, one span per estimator layer.
core::AnalysisResult analyze_traced(const Dataset& dataset, const core::AutoSensOptions& options,
                                    Iteration& it) {
  if (dataset.empty()) throw std::invalid_argument("analyze: empty dataset");
  auto [slots, biased] = [&] {
    obs::Span span("core.confounder_time");
    const core::TimeNormalizer normalizer(dataset, options);
    return std::pair(normalizer.slots(), normalizer.normalized_biased(dataset));
  }();
  auto unbiased = [&] {
    obs::Span span("core.unbiased");
    return core::unbiased_histogram(dataset, options);
  }();
  auto preference = [&] {
    obs::Span span("core.preference");
    return core::compute_preference(biased, unbiased, options);
  }();
  preference.biased_samples = dataset.size();
  it.counts["core.confounder_time.fallback_slots"] += static_cast<double>(std::count_if(
      slots.begin(), slots.end(), [](const core::SlotStat& s) { return s.alpha_from_fallback; }));
  return core::AnalysisResult{.preference = std::move(preference),
                              .biased = std::move(biased),
                              .unbiased = std::move(unbiased),
                              .slots = std::move(slots)};
}

Dataset validate_traced(const Dataset& input, Iteration& it) {
  obs::Span span("telemetry.validate");
  auto validated = telemetry::validate(input);
  it.counts["telemetry.validate.rows_in"] += static_cast<double>(validated.report.total);
  it.counts["telemetry.validate.rows_kept"] += static_cast<double>(validated.report.kept);
  return std::move(validated.dataset);
}

Dataset filter_traced(const Dataset& input, ActionType action, Iteration& it) {
  obs::Span span("telemetry.filter");
  Dataset kept = input.filtered(telemetry::by_action(action));
  it.counts["telemetry.filter.rows_in"] += static_cast<double>(input.size());
  it.counts["telemetry.filter.rows_out"] += static_cast<double>(kept.size());
  return kept;
}

/// Hands out never-used paths in the workload's directory, so nothing is
/// deleted while a run measures: on ext4 mounted with online discard,
/// create/delete churn slows file creation for minutes afterwards. The
/// run clears the directory before set-up and after its result.
class FreshPaths {
 public:
  explicit FreshPaths(fs::path dir) : dir_(std::move(dir)) {}
  fs::path next(const std::string& name) {
    fs::create_directories(dir_);
    return dir_ / (std::to_string(next_++) + "-" + name);
  }

 private:
  fs::path dir_;
  std::size_t next_ = 0;
};

// --- csv-analyze ----------------------------------------------------------

/// `analyze --in log.csv --action SelectMail`: CSV ingest dominates.
class CsvAnalyze final : public Workload {
 public:
  explicit CsvAnalyze(WorkloadConfig config)
      : config_(std::move(config)), paths_(config_.dir) {}

  void setup() override {
    path_ = paths_.next("input.csv");
    const Dataset generated = generate(config_);
    telemetry::write_csv_file(path_, generated);
    rows_ = generated.size();
    const auto slice =
        telemetry::validate(as_csv_text_rounds(generated)).dataset.filtered(
            telemetry::by_action(kAnalyzedAction));
    oracle_.clear();
    put(oracle_, core::analyze_detailed(slice, oracle_options()));
  }

  const std::string& oracle() const override { return oracle_; }

  Iteration run(const RunFlags& flags) override {
    Iteration it;
    Stopwatch watch(flags);
    watch.start();
    std::optional<telemetry::CsvReadResult> read;
    std::optional<core::AnalysisResult> result;
    if (!flags.traced) {
      read = telemetry::read_csv_file(path_);
      const auto validated = telemetry::validate(read->dataset);
      const auto slice = validated.dataset.filtered(telemetry::by_action(kAnalyzedAction));
      result = core::analyze_detailed(slice, flow_options());
    } else {
      {
        obs::Span span("telemetry.ingest");
        read = telemetry::read_csv_file(path_);
      }
      const auto validated = validate_traced(read->dataset, it);
      const auto slice = filter_traced(validated, kAnalyzedAction, it);
      result = analyze_traced(slice, flow_options(), it);
    }
    it.timing = watch.stop();
    it.rows = rows_;
    if (flags.traced) {
      it.counts["telemetry.ingest.mib"] = static_cast<double>(fs::file_size(path_)) / kMiB;
    }
    if (!read->errors.empty() || read->dataset.size() != rows_) {
      it.failure = "csv ingest parsed " + std::to_string(read->dataset.size()) + " of " +
                   std::to_string(rows_) + " rows";
    }
    put(it.output, *result);
    return it;
  }

 private:
  /// The generated rows as the CSV text holds them: write_csv prints
  /// latencies with the stream default of 6 significant digits, and the
  /// reader parses them correctly rounded, like strtod.
  static Dataset as_csv_text_rounds(const Dataset& dataset) {
    std::vector<double> latencies(dataset.latencies().begin(), dataset.latencies().end());
    for (double& latency : latencies) {
      char text[32];
      std::snprintf(text, sizeof text, "%g", latency);
      latency = std::strtod(text, nullptr);
    }
    Dataset rounded;
    rounded.append_columns(dataset.times(), latencies, dataset.user_ids(), dataset.actions(),
                           dataset.user_classes(), dataset.statuses());
    return rounded;
  }

  WorkloadConfig config_;
  FreshPaths paths_;
  fs::path path_;
  std::size_t rows_ = 0;
  std::string oracle_;
};

// --- binlog-slices --------------------------------------------------------

/// `slices --in log.bin --by action`: cheap ingest; validate, filter and the
/// estimators dominate.
class BinlogSlices final : public Workload {
 public:
  explicit BinlogSlices(WorkloadConfig config)
      : config_(std::move(config)), paths_(config_.dir) {}

  void setup() override {
    path_ = paths_.next("input.bin");
    const Dataset generated = generate(config_);
    telemetry::write_binlog_file(path_, generated);
    rows_ = generated.size();
    oracle_.clear();
    put(oracle_, core::preference_by_action(telemetry::validate(generated).dataset,
                                            oracle_options()));
  }

  const std::string& oracle() const override { return oracle_; }

  Iteration run(const RunFlags& flags) override {
    Iteration it;
    Stopwatch watch(flags);
    watch.start();
    Dataset input;
    std::vector<core::NamedPreference> curves;
    if (!flags.traced) {
      input = telemetry::read_binlog_file(path_);
      curves = core::preference_by_action(telemetry::validate(input).dataset, flow_options());
    } else {
      {
        obs::Span span("telemetry.ingest");
        input = telemetry::read_binlog_file(path_);
      }
      const auto validated = validate_traced(input, it);
      obs::Span span("core.slices");
      // preference_by_action: one curve per action type, skipping slices
      // that are empty or cannot support a curve.
      for (const auto type : {ActionType::kSelectMail, ActionType::kSwitchFolder,
                              ActionType::kSearch, ActionType::kComposeSend}) {
        const auto slice = filter_traced(validated, type, it);
        if (slice.empty()) continue;
        try {
          auto result = analyze_traced(slice, flow_options(), it);
          curves.push_back({std::string(telemetry::to_string(type)),
                            std::move(result.preference), slice.size()});
        } catch (const std::invalid_argument&) {
        }
      }
    }
    it.timing = watch.stop();
    it.rows = rows_;
    if (flags.traced) {
      it.counts["telemetry.ingest.mib"] = static_cast<double>(fs::file_size(path_)) / kMiB;
    }
    if (input.size() != rows_) {
      it.failure = "binlog ingest read " + std::to_string(input.size()) + " of " +
                   std::to_string(rows_) + " rows";
    }
    put(it.output, curves);
    return it;
  }

 private:

  WorkloadConfig config_;
  FreshPaths paths_;
  fs::path path_;
  std::size_t rows_ = 0;
  std::string oracle_;
};

// --- store-windows --------------------------------------------------------

/// `store analyze --window-days 7 --action SelectMail` over a store that
/// set-up built from the binlog (`store build`) into a fresh directory. The
/// build is timed in set-up rather than per iteration: a store is ~480 files
/// and directories, and building one per iteration made later builds 2x
/// slower within minutes (see FreshPaths), so iteration times drifted.
class StoreWindows final : public Workload {
 public:
  explicit StoreWindows(WorkloadConfig config)
      : config_(std::move(config)), paths_(config_.dir) {}

  void setup() override {
    const fs::path binlog = paths_.next("input.bin");
    const Dataset generated = generate(config_);
    telemetry::write_binlog_file(binlog, generated);
    rows_ = generated.size();
    store_ = paths_.next("store");
    const std::int64_t build_begin = now_ns();
    const auto written =
        telemetry::store::build_store_from_binlog(binlog.string(), store_.string());
    build_ms_ = static_cast<double>(now_ns() - build_begin) / 1e6;
    if (written != rows_) {
      throw std::runtime_error("store build wrote " + std::to_string(written) + " of " +
                               std::to_string(rows_) + " rows");
    }
    // The store_analyze.h contract: each window equals the in-memory rows of
    // that window, scrubbed, sliced and analyzed.
    oracle_.clear();
    const auto times = generated.times();
    const std::int64_t window_ms = stream_options().window_ms;
    for (std::int64_t begin = times.front(); begin <= times.back(); begin += window_ms) {
      const std::int64_t end = begin + window_ms;
      const auto lo = static_cast<std::size_t>(
          std::lower_bound(times.begin(), times.end(), begin) - times.begin());
      const auto hi = static_cast<std::size_t>(
          std::lower_bound(times.begin(), times.end(), end) - times.begin());
      Dataset window;
      window.append_columns(times.subspan(lo, hi - lo),
                            generated.latencies().subspan(lo, hi - lo),
                            generated.user_ids().subspan(lo, hi - lo),
                            generated.actions().subspan(lo, hi - lo),
                            generated.user_classes().subspan(lo, hi - lo),
                            generated.statuses().subspan(lo, hi - lo));
      const auto slice = telemetry::validate(window).dataset.filtered(
          telemetry::by_action(kAnalyzedAction));
      std::optional<core::PreferenceResult> preference;
      if (!slice.empty()) {
        try {
          preference = core::analyze(slice, oracle_options());
        } catch (const std::invalid_argument&) {
        }
      }
      put_window(oracle_, begin, end, slice.size(), preference);
    }
  }

  const std::string& oracle() const override { return oracle_; }

  Iteration run(const RunFlags& flags) override {
    Iteration it;
    Stopwatch watch(flags);
    watch.start();
    if (!flags.traced) {
      const auto store = telemetry::store::StoredDataset::open(store_.string());
      for (const auto& w : core::analyze_store_windows(store, flow_options(), stream_options())) {
        put_window(it.output, w.begin_ms, w.end_ms, w.records, w.preference);
      }
    } else {
      const auto store = [&] {
        obs::Span span("store.open");
        return telemetry::store::StoredDataset::open(store_.string());
      }();
      it.counts["store.build.ms"] = build_ms_;
      it.counts["store.build.mib_written"] = static_cast<double>(store.stored_bytes()) / kMiB;
      obs::Span span("core.store_analyze");
      // analyze_store_windows: tile [min, max] and analyze each window.
      const std::int64_t window_ms = stream_options().window_ms;
      for (std::int64_t begin = store.min_time_ms(); begin <= store.max_time_ms();
           begin += window_ms) {
        const std::int64_t end = begin + window_ms;
        auto load = [&] {
          obs::Span load_span("store.load_window");
          return store.load_window(begin, end);
        }();
        it.counts["store.load_window.mib_read"] += static_cast<double>(load.bytes_read) / kMiB;
        it.counts["store.load_window.partitions_pruned"] +=
            static_cast<double>(load.partitions_pruned);
        const auto slice =
            filter_traced(validate_traced(load.dataset, it), kAnalyzedAction, it);
        std::optional<core::PreferenceResult> preference;
        if (!slice.empty()) {
          try {
            preference = analyze_traced(slice, flow_options(), it).preference;
          } catch (const std::invalid_argument&) {
          }
        }
        put_window(it.output, begin, end, slice.size(), preference);
      }
    }
    it.timing = watch.stop();
    it.rows = rows_;
    return it;
  }

 private:
  static core::StoreStreamOptions stream_options() {
    core::StoreStreamOptions stream;
    stream.window_ms = 7 * telemetry::kMillisPerDay;
    stream.scrub = true;
    stream.action = kAnalyzedAction;
    return stream;
  }

  WorkloadConfig config_;
  std::size_t rows_ = 0;
  FreshPaths paths_;
  fs::path store_;
  double build_ms_ = 0.0;  ///< The latest set-up build.
  std::string oracle_;
};

// --- tcp-fanin ------------------------------------------------------------

/// Order-independent digest of a multiset of records: the collector merges
/// sessions in arrival order, so equal timestamps may land in any order.
class RecordDigest {
 public:
  void add(const telemetry::ActionRecord& r) {
    std::uint64_t h = mix(static_cast<std::uint64_t>(r.time_ms));
    h = mix(h ^ r.user_id);
    h = mix(h ^ std::bit_cast<std::uint64_t>(r.latency_ms));
    h = mix(h ^ (static_cast<std::uint64_t>(r.action) |
                 static_cast<std::uint64_t>(r.user_class) << 8 |
                 static_cast<std::uint64_t>(r.status) << 16));
    ++count_;
    sum_ += h;
    xor_ ^= h;
  }

  std::string bytes() const {
    std::string out;
    put(out, count_);
    put(out, sum_);
    put(out, xor_);
    return out;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t xor_ = 0;
};

/// An in-process 2-shard collector on loopback fed by a closed loop of 2
/// emitter threads, each opening its next session only after the previous
/// one closed.
class TcpFanin final : public Workload {
 public:
  explicit TcpFanin(WorkloadConfig config)
      : config_(std::move(config)),
        sessions_(config_.tiny ? 16 : 256),
        per_session_(config_.tiny ? 512 : 8192) {}

  void setup() override {
    records_ = generate(config_);
    RecordDigest digest;
    for (std::size_t s = 0; s < sessions_; ++s) {
      for (std::size_t i = 0; i < per_session_; ++i) {
        // The wire row codec carries latency in hundredths of a millisecond.
        auto sent = record(s, i);
        sent.latency_ms = static_cast<double>(
                              static_cast<std::int64_t>(std::round(sent.latency_ms * 100.0))) /
                          100.0;
        digest.add(sent);
      }
    }
    oracle_ = digest.bytes();
  }

  const std::string& oracle() const override { return oracle_; }

  Iteration run(const RunFlags& flags) override {
    constexpr std::size_t kEmitterThreads = 2;
    constexpr std::size_t kBatch = 256;
    constexpr int kIdleTimeoutMs = 5000;
    Iteration it;
    net::CollectorOptions options;
    options.shards = 2;
    auto collector = std::make_unique<net::Collector>(options);
    const std::uint16_t port = collector->port();
    const auto overflows_before = listen_overflows();

    std::atomic<std::size_t> next_session{0};
    std::atomic<std::size_t> sent{0};
    std::atomic<std::size_t> retries{0};
    std::atomic<std::size_t> reconnects{0};
    std::mutex error_mutex;
    std::string emitter_error;
    std::vector<std::vector<double>> session_ms(kEmitterThreads);
    const std::size_t expected_goodbyes =
        sessions_ + (flags.inject == Inject::kTimeout ? 1 : 0);
    const int timeout_ms = flags.inject == Inject::kTimeout ? 200 : kIdleTimeoutMs;

    Stopwatch watch(flags);
    watch.start();
    bool complete = false;
    Dataset delivered;
    {
      // Declared after the collector: if anything below throws, the
      // emitters are joined while the collector still serves them.
      std::vector<std::jthread> emitters;
      for (std::size_t t = 0; t < kEmitterThreads; ++t) {
        emitters.emplace_back([&, t] {
          try {
            for (std::size_t s = next_session++; s < sessions_; s = next_session++) {
              obs::Span span("net.emitter.session");
              const std::int64_t begin = now_ns();
              net::EmitterOptions emitter_options;
              emitter_options.batch_size = kBatch;
              emitter_options.session_id = s + 1;
              net::Emitter emitter(port, emitter_options);
              for (std::size_t i = 0; i < per_session_; ++i) emitter.record(record(s, i));
              emitter.close();
              session_ms[t].push_back(static_cast<double>(now_ns() - begin) / 1e6);
              sent += emitter.sent_records();
              retries += emitter.stats().retries;
              reconnects += emitter.stats().reconnects;
            }
          } catch (const std::exception& e) {
            const std::lock_guard lock(error_mutex);
            emitter_error = e.what();
          }
        });
      }
      {
        obs::Span span("net.collector.serve");
        complete = collector->serve_until_goodbye(expected_goodbyes, timeout_ms);
      }
      // A collector that gave up stops serving; emitters still sending then
      // fail fast instead of waiting on it.
      if (!complete) collector.reset();
    }
    if (collector) {
      obs::Span span("net.collector.take_dataset");
      delivered = collector->take_dataset();
    }
    it.timing = watch.stop();
    it.rows = delivered.size();
    if (collector) {
      const auto stats = collector->stats();
      it.counts["net.collector.duplicate_frames"] = static_cast<double>(stats.duplicate_frames);
      it.counts["net.collector.resyncs"] = static_cast<double>(stats.resyncs);
      it.counts["net.collector.deadline_drops"] = static_cast<double>(stats.deadline_drops);
      collector.reset();
    }
    it.counts["net.emitter.retries"] = static_cast<double>(retries.load());
    it.counts["net.emitter.reconnects"] = static_cast<double>(reconnects.load());
    for (const auto& per_thread : session_ms) {
      it.session_ms.insert(it.session_ms.end(), per_thread.begin(), per_thread.end());
    }

    auto overflows_after = listen_overflows();
    if (overflows_after && flags.inject == Inject::kOverflow) ++*overflows_after;
    const std::size_t planned = sessions_ * per_session_;
    const std::size_t delivered_count =
        delivered.size() - (flags.inject == Inject::kLost && !delivered.empty() ? 1 : 0);
    if (!emitter_error.empty()) {
      it.failure = "emitter failed: " + emitter_error;
    } else if (!complete) {
      it.failure = "serve_until_goodbye timed out";
    } else if (sent.load() != planned) {
      it.failure = "sent " + std::to_string(sent.load()) + " of " + std::to_string(planned);
    } else if (delivered_count != sent.load()) {
      it.failure = "delivered " + std::to_string(delivered_count) + " != sent " +
                   std::to_string(sent.load());
    } else if (!overflows_before || !overflows_after) {
      it.failure = "cannot read ListenOverflows from /proc/net/netstat";
    } else if (*overflows_after != *overflows_before) {
      it.failure = "ListenOverflows moved by " +
                   std::to_string(*overflows_after - *overflows_before);
    }
    if (overflows_before && overflows_after) {
      it.counts["net.listen_overflows"] =
          static_cast<double>(*overflows_after - *overflows_before);
    }
    RecordDigest digest;
    for (std::size_t i = 0; i < delivered.size(); ++i) digest.add(delivered[i]);
    it.output = digest.bytes();
    return it;
  }

 private:
  /// Session s ships rows [s * per_session, (s + 1) * per_session) of the
  /// generated log, wrapping past its end (256 x 8192 records exceed the
  /// 1.95 M rows of a medium log).
  telemetry::ActionRecord record(std::size_t session, std::size_t i) const {
    return records_[(session * per_session_ + i) % records_.size()];
  }

  WorkloadConfig config_;
  std::size_t sessions_;
  std::size_t per_session_;
  Dataset records_;
  std::string oracle_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadConfig& config) {
  if (name == "csv-analyze") return std::make_unique<CsvAnalyze>(config);
  if (name == "binlog-slices") return std::make_unique<BinlogSlices>(config);
  if (name == "store-windows") return std::make_unique<StoreWindows>(config);
  if (name == "tcp-fanin") return std::make_unique<TcpFanin>(config);
  return nullptr;
}

}  // namespace perfbench
