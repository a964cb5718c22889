#include "workloads.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <malloc.h>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "origami/cluster/replay.hpp"
#include "origami/common/hash.hpp"
#include "origami/common/thread_pool.hpp"
#include "origami/core/pipeline.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/fs/origami_fs.hpp"
#include "origami/kv/db.hpp"
#include "origami/mds/inode_store.hpp"
#include "origami/policy/registry.hpp"
#include "origami/recovery/invariants.hpp"
#include "origami/wl/generators.hpp"

namespace perfbench {
namespace {

using namespace origami;

/// Trace lengths. At full size every timed phase lasts well over a second
/// on a 4-core host; the smoke size only exercises the code paths.
struct Sizes {
  std::uint64_t rw_ops;
  std::uint64_t rw_train_ops;
  std::uint64_t midas_ops;
  std::uint64_t falcon_ops;
};
constexpr Sizes kFullSizes{2'000'000, 300'000, 1'000'000, 1'500'000};
constexpr Sizes kSmokeSizes{40'000, 40'000, 40'000, 40'000};

/// The training trace's seed offset, the one origami_sim uses.
constexpr std::uint64_t kSiblingSeedOffset = 98;
constexpr std::uint32_t kServers = 5;
constexpr std::uint64_t kLiveEpochOps = 20'000;
/// Trace ops per training epoch of the falcon family at its default size
/// (400,000 ops over 3 epochs). Keeping it at larger sizes keeps the
/// family's share of scan storms and checkpoint bursts.
constexpr std::uint64_t kFalconOpsPerEpoch = 400'000 / 3;

/// Set-up runs this many times per round; the round reports the median and
/// keeps the last pass's products. One pass lasts 0.07-0.2 s, so a single
/// timing is at the mercy of page faults and of neighbours on the host.
constexpr int kSetupRepeats = 5;

/// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<const char*, const char*>> kLayerUnits = {
    {"wl.generate_s", "s"},
    {"core.label_gen_s", "s"},
    {"core.label_rows", "count"},
    {"core.label_gen_speedup", "x"},
    {"ml.train_s", "s"},
    {"ml.trees", "count"},
    {"ml.predict_us_per_row", "us"},
    {"policy.rebalance_s", "s"},
    {"policy.rebalance_calls", "count"},
    {"policy.decisions", "count"},
    {"policy.rebalance_share", "ratio"},
    {"policy.live_epoch_s", "s"},
    {"cluster.engine_s", "s"},
    {"cluster.epoch_host_ms_p50", "ms"},
    {"cluster.epoch_host_ms_max", "ms"},
    {"cluster.epochs", "count"},
    {"cluster.arrivals", "count"},
    {"cluster.migrations", "count"},
    {"cluster.inodes_migrated", "count"},
    {"cluster.rpcs_per_op", "ratio"},
    {"cluster.forwarded_share", "ratio"},
    {"mds.cache_hit_ratio", "ratio"},
    {"fault.crashes", "count"},
    {"fault.retries", "count"},
    {"fault.timeouts", "count"},
    {"fault.failovers", "count"},
    {"recovery.journal_records", "count"},
    {"recovery.journal_replays", "count"},
    {"recovery.replayed_records", "count"},
    {"recovery.fenced", "count"},
    {"recovery.aborted_migrations", "count"},
    {"recovery.check_s", "s"},
    {"kvstore.puts", "count"},
    {"kvstore.gets", "count"},
    {"kvstore.deletes", "count"},
    {"kvstore.memtable_flushes", "count"},
    {"kvstore.compactions", "count"},
    {"kvstore.run_probes_per_get", "ratio"},
    {"kvstore.bloom_skip_ratio", "ratio"},
    {"kvstore.put_us", "us"},
    {"kvstore.get_us", "us"},
    {"fs.replay_s", "s"},
    {"fs.ops_per_s_1t", "ops/s"},
    {"fs.thread_speedup", "x"},
    {"fs.epoch_host_ms_p50", "ms"},
    {"fs.shard_imbalance", "ratio"},
    {"fs.migrations", "count"},
};

/// Per-layer values of one traced round; unknown names are a bug here.
class Layers {
 public:
  void set(const std::string& name, double value) {
    for (const auto& [n, unit] : kLayerUnits) {
      if (name == n) {
        values_[name] = value;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }

  [[nodiscard]] std::vector<LayerMetric> all() const {
    std::vector<LayerMetric> out;
    for (const auto& [n, unit] : kLayerUnits) {
      const auto it = values_.find(n);
      out.push_back({n, unit, it == values_.end() ? 0.0 : it->second});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Resident set of this process (/proc/self/statm, in MB; 0 if unreadable).
double resident_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20)
                : 0.0;
}

/// Peak resident set the experiment adds to what set-up left. Construction
/// hands set-up's freed heap back to the OS (malloc_trim) and reads the
/// baseline: set-up's products, whose size depends on the seed through the
/// generators' capacity overshoot (see README.md). A thread then samples the
/// resident set every millisecond until stop(), which catches the clusters
/// and stores a replay builds and frees inside itself.
class PeakRss {
 public:
  PeakRss() {
    malloc_trim(0);
    baseline_mb_ = peak_mb_ = resident_mb();
    sampler_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        peak_mb_ = std::max(peak_mb_, resident_mb());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~PeakRss() { (void)stop(); }
  PeakRss(const PeakRss&) = delete;
  PeakRss& operator=(const PeakRss&) = delete;

  /// Ends sampling (once) and returns the peak above the baseline, in MB.
  double stop() {
    if (sampler_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      sampler_.join();
      peak_mb_ = std::max(peak_mb_, resident_mb());
    }
    return peak_mb_ - baseline_mb_;
  }

  [[nodiscard]] double baseline_mb() const { return baseline_mb_; }

 private:
  std::atomic<bool> stop_{false};
  double baseline_mb_ = 0.0;
  double peak_mb_ = 0.0;  ///< written by the sampler until it is joined
  std::thread sampler_;
};

/// Runs set-up kSetupRepeats times and returns the median pass time.
/// `clear` drops the previous pass's products untimed; `build` is timed.
template <typename Clear, typename Build>
double timed_setup(Clear&& clear, Build&& build) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    clear();
    const auto t0 = Clock::now();
    build();
    times.push_back(seconds_since(t0));
  }
  return quantile(times, 0.5);
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

/// Shared state of one round: options, spans, the result being built.
struct Round {
  const RoundOptions& opt;
  SpanRecorder& spans;
  RoundResult result;
  Layers layers;

  [[nodiscard]] bool corrupt(const char* check) const {
    return opt.corrupt == check;
  }
  void check(const char* name, bool ok, std::string detail) {
    result.checks.push_back({name, ok, std::move(detail)});
  }
  void record(const char* key, std::uint64_t value) {
    result.record.emplace_back(key, std::to_string(value));
  }
  void record_mb(const char* key, double value) {
    result.record.emplace_back(key, fmt("%.3f", value));
  }
  [[nodiscard]] const Sizes& sizes() const {
    return opt.smoke ? kSmokeSizes : kFullSizes;
  }
  [[nodiscard]] double span_total(const std::string& name) const {
    const auto s = spans.summary();
    const auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second.total_s;
  }
  [[nodiscard]] double span_self(const std::string& name) const {
    const auto s = spans.summary();
    const auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second.self_s;
  }
};

/// Input make-up measured from the generated trace.
std::string describe_input(const char* label, const wl::Trace& trace) {
  const wl::TraceSummary s = wl::summarize(trace);
  std::string mix;
  for (int t = 0; t < fsns::kOpTypeCount; ++t) {
    if (s.op_counts[t] == 0) continue;
    mix += fmt(" %s=%.2f%%",
               std::string(fsns::to_string(static_cast<fsns::OpType>(t)))
                   .c_str(),
               100.0 * ratio(static_cast<double>(s.op_counts[t]),
                             static_cast<double>(s.total_ops)));
  }
  return fmt("input %s: %s, %llu ops, %zu dirs, %zu files, write share "
             "%.1f%%, mix:",
             label, trace.name.c_str(),
             static_cast<unsigned long long>(s.total_ops),
             trace.tree.dir_count(), trace.tree.file_count(),
             100.0 * s.write_fraction) +
         mix;
}

/// The epoch-DES settings origami_sim uses: 5 MDS, 50 closed-loop
/// clients, 500 ms epochs with 4 warm-up epochs.
cluster::ReplayOptions des_options() {
  cluster::ReplayOptions opt;
  opt.mds_count = kServers;
  opt.clients = 50;
  opt.epoch_length = sim::millis(500);
  opt.warmup_epochs = 4;
  return opt;
}

std::unique_ptr<TimedBalancer> make_balancer(
    Round& round, const std::string& spec, cluster::ReplayOptions& opt,
    const core::TrainedModels* models) {
  policy::PolicyContext ctx;
  ctx.options = &opt;
  if (models != nullptr) {
    ctx.benefit_model = models->benefit;
    ctx.popularity_model = models->popularity;
  }
  auto made = policy::Registry::builtin().make(spec, ctx);
  if (!made.is_ok()) throw std::runtime_error(made.status().to_string());
  auto timed = std::make_unique<TimedBalancer>(
      std::move(made).value(), round.spans, round.opt.delay_micros);
  if (engine::Observer* o = timed->inner_observer()) {
    opt.observers.push_back(o);
  }
  return timed;
}

/// Host-clock and counter view of one epoch-DES replay (traced rounds).
void record_des_layers(Round& round, const cluster::RunResult& r,
                       const TimedBalancer& balancer, const EpochClock& clock,
                       double replay_s) {
  Layers& l = round.layers;
  const double rebalance_s = round.span_total("policy.rebalance");
  l.set("policy.rebalance_s", rebalance_s);
  l.set("policy.rebalance_calls", static_cast<double>(balancer.calls));
  l.set("policy.decisions", static_cast<double>(balancer.decisions));
  l.set("policy.rebalance_share", ratio(rebalance_s, replay_s));
  l.set("cluster.engine_s", round.span_self("cluster.replay_trace"));
  l.set("cluster.epoch_host_ms_p50", quantile(clock.epoch_ms, 0.5));
  l.set("cluster.epoch_host_ms_max", quantile(clock.epoch_ms, 1.0));
  l.set("cluster.epochs", static_cast<double>(r.epochs.size()));
  l.set("cluster.arrivals", static_cast<double>(clock.arrivals));
  l.set("cluster.migrations", static_cast<double>(r.migrations));
  l.set("cluster.inodes_migrated", static_cast<double>(r.inodes_migrated));
  l.set("cluster.rpcs_per_op", r.rpc_per_request);
  l.set("cluster.forwarded_share",
        ratio(static_cast<double>(r.forwarded_requests),
              static_cast<double>(r.completed_ops)));
  l.set("mds.cache_hit_ratio",
        ratio(static_cast<double>(r.cache.hits),
              static_cast<double>(r.cache.hits + r.cache.misses)));
  const cluster::RobustnessStats& f = r.faults;
  l.set("fault.crashes", static_cast<double>(f.crashes));
  l.set("fault.retries", static_cast<double>(f.retries));
  l.set("fault.timeouts", static_cast<double>(f.timeouts));
  l.set("fault.failovers", static_cast<double>(f.failovers));
  l.set("recovery.journal_records", static_cast<double>(f.journal_records));
  l.set("recovery.journal_replays", static_cast<double>(f.journal_replays));
  l.set("recovery.replayed_records",
        static_cast<double>(f.journal_replayed_records));
  l.set("recovery.fenced", static_cast<double>(f.fenced_rejections));
  l.set("recovery.aborted_migrations",
        static_cast<double>(f.aborted_migrations));
}

struct DesRun {
  cluster::RunResult result;
  double replay_s = 0.0;
};

/// One epoch-DES replay, timed as the `cluster.replay_trace` span. A traced
/// round observes it with an EpochClock and records the DES layers.
DesRun replay_des(Round& round, const wl::Trace& trace,
                  cluster::ReplayOptions& ropt, TimedBalancer& balancer) {
  EpochClock clock;
  if (round.opt.traced) ropt.observers.push_back(&clock);
  DesRun run;
  {
    ScopedSpan span(round.spans, "cluster.replay_trace");
    const auto t0 = Clock::now();
    run.result = cluster::replay_trace(trace, ropt, balancer);
    run.replay_s = seconds_since(t0);
  }
  if (round.opt.traced) {
    ropt.observers.pop_back();
    record_des_layers(round, run.result, balancer, clock, run.replay_s);
  }
  return run;
}

void record_store_layers(Round& round, const kv::DbStats& s) {
  Layers& l = round.layers;
  l.set("kvstore.puts", static_cast<double>(s.puts));
  l.set("kvstore.gets", static_cast<double>(s.gets));
  l.set("kvstore.deletes", static_cast<double>(s.deletes));
  l.set("kvstore.memtable_flushes", static_cast<double>(s.memtable_flushes));
  l.set("kvstore.compactions", static_cast<double>(s.guard_compactions));
  l.set("kvstore.run_probes_per_get",
        ratio(static_cast<double>(s.run_probes), static_cast<double>(s.gets)));
  l.set("kvstore.bloom_skip_ratio",
        ratio(static_cast<double>(s.bloom_negative),
              static_cast<double>(s.bloom_negative + s.run_probes)));
}

std::string virtual_des(const cluster::RunResult& r, const char* verdict) {
  return fmt("virtual: throughput %.0f ops/s, latency p50 %.1f us p99 %.1f "
             "us, %llu migrations (%llu inodes), invariants %s",
             r.throughput_ops, r.p50_latency_us, r.p99_latency_us,
             static_cast<unsigned long long>(r.migrations),
             static_cast<unsigned long long>(r.inodes_migrated), verdict);
}

/// Drives the trace's own (parent, name) key stream through a fresh
/// kv::Db, loaded first with every node of the namespace (as a KV-backed
/// MDS is): writes put (unlink/rmdir delete), reads get, and every get and
/// the final contents are checked against a std::map shadow. `put_us`
/// counts deletes too: in the LSM both are one write.
void kv_probe(Round& round, const wl::Trace& trace) {
  ScopedSpan span(round.spans, "kvstore.probe");
  kv::Db db;
  std::map<std::string, std::string> shadow;
  std::uint64_t puts = 0, gets = 0, mismatches = 0;
  double put_s = 0.0, get_s = 0.0;
  const fsns::DirTree& tree = trace.tree;
  const auto key_of = [&tree](fsns::NodeId id) {
    return mds::inode_key(id == fsns::kRootNode ? id : tree.parent(id),
                          tree.node(id).name);
  };
  const auto put = [&](const std::string& key, std::string value) {
    const auto t0 = Clock::now();
    if (!db.put(key, value).is_ok()) ++mismatches;
    put_s += seconds_since(t0);
    ++puts;
    shadow[key] = std::move(value);
  };
  for (fsns::NodeId id = 1; id < tree.size(); ++id) put(key_of(id), "0");
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    const wl::MetaOp& op = trace.ops[i];
    const std::string key = key_of(op.target);
    if (op.type == fsns::OpType::kUnlink || op.type == fsns::OpType::kRmdir) {
      const auto t0 = Clock::now();
      if (!db.del(key).is_ok()) ++mismatches;
      put_s += seconds_since(t0);
      ++puts;
      shadow.erase(key);
    } else if (fsns::is_write(op.type)) {
      put(key, std::to_string(i + 1));
    } else {
      const auto t0 = Clock::now();
      auto got = db.get(key);
      get_s += seconds_since(t0);
      ++gets;
      const auto it = shadow.find(key);
      const bool expect = it != shadow.end();
      if (got.is_ok() != expect || (expect && got.value() != it->second)) {
        ++mismatches;
      }
    }
  }
  if (round.corrupt("kv_probe") && !shadow.empty()) {
    (void)db.del(shadow.begin()->first);
  }
  std::uint64_t final_bad = db.count_live() == shadow.size() ? 0 : 1;
  for (const auto& [key, value] : shadow) {
    auto got = db.get(key);
    if (!got.is_ok() || got.value() != value) ++final_bad;
  }
  round.check("kv_probe", mismatches == 0 && final_bad == 0,
              fmt("%llu mismatched gets/writes, %llu bad final keys over %zu "
                  "shadow keys",
                  static_cast<unsigned long long>(mismatches),
                  static_cast<unsigned long long>(final_bad), shadow.size()));
  round.layers.set("kvstore.put_us", 1e6 * ratio(put_s, static_cast<double>(puts)));
  round.layers.set("kvstore.get_us", 1e6 * ratio(get_s, static_cast<double>(gets)));
}

// ---------------------------------------------------------------- rw-mltree

/// Fingerprint of the analysis plane's output: both label datasets and the
/// Meta-OPT run that produced them.
std::uint64_t fingerprint(const core::LabelGenResult& labels) {
  std::uint64_t h = 0;
  for (const ml::Dataset* d : {&labels.benefit_data, &labels.popularity_data}) {
    for (std::size_t i = 0; i < d->size(); ++i) {
      const auto row = d->row(i);
      h = common::hash_combine(
          h, common::fnv1a({reinterpret_cast<const char*>(row.data()),
                            row.size_bytes()}));
      h = common::hash_combine(h, std::bit_cast<std::uint32_t>(d->label(i)));
    }
  }
  const cluster::RunResult& r = labels.run;
  for (const std::uint64_t v :
       {r.completed_ops, static_cast<std::uint64_t>(r.makespan), r.migrations,
        r.inodes_migrated, r.latency.count()}) {
    h = common::hash_combine(h, v);
  }
  return h;
}

void run_rw_mltree(Round& round) {
  const RoundOptions& opt = round.opt;
  common::set_analysis_threads(opt.cores);
  round.record("analysis_threads", common::analysis_threads());
  round.record("des_threads", 1);

  wl::Trace trace, sibling;
  const double setup_s = timed_setup(
      [&] { trace = sibling = wl::Trace{}; },
      [&] {
        ScopedSpan span(round.spans, "wl.generate");
        wl::TraceRwConfig cfg;
        cfg.seed = opt.seed;
        cfg.ops = round.sizes().rw_ops;
        trace = wl::make_trace_rw(cfg);
        cfg.seed = opt.seed + kSiblingSeedOffset;
        cfg.ops = round.sizes().rw_train_ops;
        sibling = wl::make_trace_rw(cfg);
      });
  round.layers.set("wl.generate_s", setup_s);

  PeakRss peak;
  const auto t_exp = Clock::now();
  cluster::ReplayOptions ropt = des_options();
  core::LabelGenOptions lg;
  lg.replay = ropt;
  lg.meta_opt.cache_enabled = ropt.cache_enabled;
  lg.meta_opt.cache_depth = ropt.cache_depth;
  core::LabelGenResult labels;
  double label_s = 0.0;
  {
    ScopedSpan span(round.spans, "core.generate_labels");
    const auto t0 = Clock::now();
    labels = core::generate_labels(sibling, lg);
    label_s = seconds_since(t0);
  }
  core::TrainedModels models;
  {
    ScopedSpan span(round.spans, "ml.train_models");
    const auto t0 = Clock::now();
    ml::GbdtParams gbdt;
    gbdt.rounds = 200;
    gbdt.early_stopping_rounds = 30;
    models = core::train_models(labels, gbdt);
    round.layers.set("ml.train_s", seconds_since(t0));
  }
  auto balancer = make_balancer(round, "ml-tree", ropt, &models);
  const auto [r, replay_s] = replay_des(round, trace, ropt, *balancer);
  const double experiment_s = seconds_since(t_exp);
  const double peak_rss_mb = peak.stop();

  RoundResult& out = round.result;
  out.setup_s = setup_s;
  out.experiment_s = experiment_s;
  out.peak_rss_mb = peak_rss_mb;
  round.record_mb("setup_rss_mb", peak.baseline_mb());
  out.replay_s = replay_s;
  out.attempted = trace.ops.size();
  out.failed = r.faults.failed_ops;
  round.record("ops", trace.ops.size());
  round.record("train_ops", sibling.ops.size());
  round.record("rebalance_calls", balancer->calls);
  out.notes.push_back(describe_input("eval", trace));
  out.notes.push_back(describe_input("train", sibling));
  out.notes.push_back(virtual_des(r, "n/a (no faults)"));

  // --- checks -------------------------------------------------------------
  const std::uint64_t completed =
      r.completed_ops - (round.corrupt("completed_ops") ? 1 : 0);
  round.check("completed_ops", completed == trace.ops.size(),
              fmt("%llu completed of %zu",
                  static_cast<unsigned long long>(completed),
                  trace.ops.size()));
  const std::uint64_t hist =
      r.latency.count() - (round.corrupt("latency_count") ? 1 : 0);
  round.check("latency_count", hist == r.completed_ops,
              fmt("histogram holds %llu of %llu completed ops",
                  static_cast<unsigned long long>(hist),
                  static_cast<unsigned long long>(r.completed_ops)));
  // Both models, each over its own label rows: the popularity model is the
  // one ml-tree consults online, the benefit model is Origami's.
  const std::pair<const ml::GbdtModel*, const ml::Dataset*> fitted[] = {
      {models.benefit.get(), &labels.benefit_data},
      {models.popularity.get(), &labels.popularity_data}};
  std::size_t rows = 0, bad = 0;
  double predict_s = 0.0;
  for (const auto& [model, data] : fitted) {
    std::vector<double> batch;
    {
      ScopedSpan span(round.spans, "ml.predict_batch");
      const auto t0 = Clock::now();
      batch = model->predict_batch(*data);
      predict_s += seconds_since(t0);
    }
    if (round.corrupt("predict_batch") && !batch.empty()) {
      batch[0] = std::nextafter(batch[0], HUGE_VAL);
    }
    bad += batch.size() == data->size() ? 0 : 1;
    for (std::size_t i = 0; i < std::min(batch.size(), data->size()); ++i) {
      const double one = model->predict(data->row(i));
      if (std::bit_cast<std::uint64_t>(one) !=
              std::bit_cast<std::uint64_t>(batch[i]) ||
          !std::isfinite(batch[i])) {
        ++bad;
      }
    }
    rows += data->size();
  }
  round.layers.set("ml.predict_us_per_row",
                   1e6 * ratio(predict_s, static_cast<double>(rows)));
  round.check("predict_batch", bad == 0 && rows > 0,
              fmt("%zu of %zu label rows differ or are not finite", bad,
                  rows));

  if (!opt.traced) return;
  Layers& l = round.layers;
  l.set("core.label_gen_s", label_s);
  l.set("core.label_rows", static_cast<double>(labels.benefit_data.size()));
  l.set("ml.trees", models.benefit->num_trees());

  // 1-thread reference of the analysis plane: same output, its own time.
  common::set_analysis_threads(1);
  core::LabelGenResult ref;
  double ref_s = 0.0;
  {
    ScopedSpan span(round.spans, "core.generate_labels.1t");
    const auto t0 = Clock::now();
    ref = core::generate_labels(sibling, lg);
    ref_s = seconds_since(t0);
  }
  common::set_analysis_threads(opt.cores);
  l.set("core.label_gen_speedup", ratio(ref_s, label_s));
  const std::uint64_t fp_n = fingerprint(labels);
  const std::uint64_t fp_1 =
      fingerprint(ref) ^ (round.corrupt("analysis_fingerprint") ? 1 : 0);
  round.check("analysis_fingerprint", fp_n == fp_1,
              fmt("%u threads %016llx vs 1 thread %016llx", opt.cores,
                  static_cast<unsigned long long>(fp_n),
                  static_cast<unsigned long long>(fp_1)));
}

// ------------------------------------------------------------- midas-faulted

void run_midas_faulted(Round& round) {
  const RoundOptions& opt = round.opt;
  common::set_analysis_threads(1);
  round.record("analysis_threads", common::analysis_threads());
  round.record("des_threads", 1);

  wl::Trace trace;
  const double setup_s = timed_setup(
      [&] { trace = wl::Trace{}; },
      [&] {
        ScopedSpan span(round.spans, "wl.generate");
        wl::TraceMidasConfig cfg;
        cfg.seed = opt.seed;
        cfg.ops = round.sizes().midas_ops;
        trace = wl::make_trace_midas(cfg);
      });
  round.layers.set("wl.generate_s", setup_s);

  PeakRss peak;
  const auto t_exp = Clock::now();
  cluster::ReplayOptions ropt = des_options();
  ropt.kv_backing = true;
  // Seeded crash, straggler and RPC-loss plan; journaling stays at its
  // default, sync (durable before ack).
  ropt.faults.seed = 2026 + opt.seed;
  ropt.faults.crash_prob = 0.02;
  ropt.faults.straggler_prob = 0.05;
  ropt.faults.rpc_loss_prob = 0.001;
  auto balancer = make_balancer(round, "greedy-spill", ropt, nullptr);
  const auto [r, replay_s] = replay_des(round, trace, ropt, *balancer);
  const double experiment_s = seconds_since(t_exp);
  const double peak_rss_mb = peak.stop();

  RoundResult& out = round.result;
  out.setup_s = setup_s;
  out.experiment_s = experiment_s;
  out.peak_rss_mb = peak_rss_mb;
  round.record_mb("setup_rss_mb", peak.baseline_mb());
  out.replay_s = replay_s;
  out.attempted = trace.ops.size();
  out.failed = r.faults.failed_ops;
  round.record("ops", trace.ops.size());
  round.record("fault_seed", ropt.faults.seed);
  round.record("rebalance_calls", balancer->calls);
  out.notes.push_back(describe_input("eval", trace));

  // --- checks -------------------------------------------------------------
  recovery::NamespaceInvariantChecker::Report report;
  {
    ScopedSpan span(round.spans, "recovery.check");
    const auto t0 = Clock::now();
    if (r.ledger) {
      const recovery::RecoveryLedger* ledger = r.ledger.get();
      recovery::RecoveryLedger corrupted;
      if (round.corrupt("invariants")) {
        corrupted = *ledger;
        const fsns::NodeId dir = trace.tree.directories().back();
        corrupted.final_owner[dir] = (corrupted.final_owner[dir] + 1) % kServers;
        ledger = &corrupted;
      }
      report = recovery::NamespaceInvariantChecker::check(trace.tree, *ledger);
    } else {
      report.violations.push_back("no recovery ledger captured");
    }
    round.layers.set("recovery.check_s", seconds_since(t0));
  }
  round.check("invariants", report.ok(),
              report.ok() ? fmt("I1-I6 hold over %zu transfers",
                                r.ledger->transfers.size())
                          : report.to_string());
  out.notes.push_back(virtual_des(r, report.ok() ? "I1-I6 hold" : "VIOLATED"));

  const std::uint64_t completed =
      r.completed_ops - (round.corrupt("op_conservation") ? 1 : 0);
  round.check("op_conservation",
              completed + r.faults.failed_ops == trace.ops.size(),
              fmt("%llu completed + %llu failed of %zu attempted",
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(r.faults.failed_ops),
                  trace.ops.size()));
  std::uint64_t writes = 0;
  for (const wl::MetaOp& op : trace.ops) writes += fsns::is_write(op.type);
  const std::uint64_t reads = trace.ops.size() - writes;
  // Execution is at-least-once, so the store sees every op one or more
  // times: a write puts its inode, a read gets it.
  const std::uint64_t puts =
      round.corrupt("kv_puts") ? writes - 1 : r.kv_stats.puts;
  const std::uint64_t gets =
      round.corrupt("kv_gets") ? reads - 1 : r.kv_stats.gets;
  round.check("kv_puts", r.kv_backed && puts >= writes,
              fmt("%llu puts for %llu trace writes",
                  static_cast<unsigned long long>(puts),
                  static_cast<unsigned long long>(writes)));
  round.check("kv_gets", r.kv_backed && gets >= reads,
              fmt("%llu gets for %llu trace reads",
                  static_cast<unsigned long long>(gets),
                  static_cast<unsigned long long>(reads)));

  if (!opt.traced) return;
  record_store_layers(round, r.kv_stats);
  kv_probe(round, trace);
}

// --------------------------------------------------------------- falcon-live

/// Byte-exact serialization of a live replay's statistics; doubles print
/// as hexfloat so runs differing in the last bit cannot alias.
std::string fingerprint(const fs::LiveReplayStats& s) {
  std::ostringstream os;
  os << std::hexfloat << s.executed << ' ' << s.failed << ' ' << s.epochs
     << ' ' << s.migrations << ' ' << s.shard_imbalance << ' ' << s.makespan
     << ' ' << s.throughput_ops << ' ' << s.latency.count() << ' '
     << s.latency.mean() << ' ' << s.latency.max();
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    os << ' ' << s.latency.quantile(q);
  }
  for (const auto& v : {s.shard_ops, s.shard_served}) {
    for (const std::uint64_t x : v) os << ' ' << x;
  }
  for (const sim::SimTime b : s.shard_busy) os << ' ' << b;
  return os.str();
}

struct LiveRun {
  fs::LiveReplayStats stats;
  double replay_s = 0.0;
  std::vector<double> serve_ms;  ///< host time between epoch hooks
};

/// One live replay under live greedy-spill on a fresh policy. The epoch
/// hook is timed as a `policy.live_epoch` span; the host time between hooks
/// is the serving plane's per-epoch time.
LiveRun replay_live(Round& round, const wl::Trace& trace, fs::OrigamiFs& fsys,
                    std::uint32_t shard_threads, const char* span_name) {
  cluster::ReplayOptions popt = des_options();
  policy::PolicyContext ctx;
  ctx.options = &popt;
  auto made = policy::Registry::builtin().make_live("greedy-spill", ctx);
  if (!made.is_ok()) throw std::runtime_error(made.status().to_string());
  const std::unique_ptr<policy::LivePolicy> live = std::move(made).value();

  LiveRun run;
  Clock::time_point mark{};
  fs::LiveReplayOptions lro;
  lro.epoch_ops = kLiveEpochOps;
  lro.shard_threads = shard_threads;
  lro.on_epoch = [&](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
    run.serve_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - mark)
            .count());
    ScopedSpan span(round.spans, "policy.live_epoch");
    spin_for_micros(round.opt.delay_micros);
    const std::uint64_t moved = live->on_epoch(f, c);
    mark = Clock::now();
    return moved;
  };
  ScopedSpan span(round.spans, span_name);
  const auto t0 = Clock::now();
  mark = t0;
  run.stats = fs::replay_on_live(trace, fsys, lro);
  run.replay_s = seconds_since(t0);
  return run;
}

/// The namespace the live plane must end with, computed from the trace by
/// its documented semantics: ancestors are materialised on first use,
/// create upserts, reads and setattr materialise a missing file, unlink
/// ignores a missing target. Falcon has no rename or rmdir; the model
/// refuses them rather than guess. Returns the set of existing nodes.
common::Result<std::vector<bool>> shadow_namespace(const wl::Trace& trace) {
  const fsns::DirTree& tree = trace.tree;
  std::vector<bool> exists(tree.size(), false);
  exists[fsns::kRootNode] = true;
  const auto materialise = [&](fsns::NodeId id, bool include_self) {
    const auto chain = tree.ancestors(id);
    const std::size_t end = include_self ? chain.size() : chain.size() - 1;
    for (std::size_t i = 1; i < end; ++i) {
      if (tree.is_dir(chain[i])) exists[chain[i]] = true;
    }
  };
  for (const wl::MetaOp& op : trace.ops) {
    const fsns::NodeId t = op.target;
    const bool dir = tree.is_dir(t);
    switch (op.type) {
      case fsns::OpType::kCreate:
        materialise(t, false);
        exists[t] = true;
        break;
      case fsns::OpType::kUnlink:
        exists[t] = false;
        break;
      case fsns::OpType::kStat:
      case fsns::OpType::kOpen:
      case fsns::OpType::kSetattr:
        materialise(t, dir);
        if (!dir) exists[t] = true;
        break;
      case fsns::OpType::kMkdir:
      case fsns::OpType::kReaddir:
        materialise(t, true);
        break;
      case fsns::OpType::kRmdir:
      case fsns::OpType::kRename:
        return common::Status::invalid_argument(
            "shadow model has no " + std::string(fsns::to_string(op.type)));
    }
  }
  return exists;
}

void check_shadow(Round& round, const wl::Trace& trace, fs::OrigamiFs& fsys) {
  auto shadow = shadow_namespace(trace);
  if (!shadow.is_ok()) {
    round.check("shadow_namespace", false, shadow.status().to_string());
    return;
  }
  const std::vector<bool>& exists = shadow.value();
  const fsns::DirTree& tree = trace.tree;
  if (round.corrupt("shadow_namespace")) {
    for (fsns::NodeId id = 0; id < tree.size(); ++id) {
      if (exists[id] && !tree.is_dir(id)) {
        (void)fsys.unlink(tree.full_path(id));
        break;
      }
    }
  }
  std::uint64_t expected = 0, missing = 0;
  for (fsns::NodeId id = 1; id < tree.size(); ++id) {
    if (!exists[id]) continue;
    ++expected;
    auto st = fsys.stat(tree.full_path(id));
    if (!st.is_ok() || st.value().is_dir != tree.is_dir(id)) ++missing;
  }
  round.check("shadow_namespace",
              missing == 0 && fsys.entry_count() == expected,
              fmt("%llu entries, shadow expects %llu, %llu expected paths "
                  "missing or of the wrong kind",
                  static_cast<unsigned long long>(fsys.entry_count()),
                  static_cast<unsigned long long>(expected),
                  static_cast<unsigned long long>(missing)));
}

void run_falcon_live(Round& round) {
  const RoundOptions& opt = round.opt;
  const std::uint32_t workers = opt.cores > 1 ? opt.cores - 1 : 1;
  common::set_analysis_threads(1);
  round.record("issuer_threads", 1);
  round.record("shard_threads", workers);

  wl::Trace trace;
  fs::OrigamiFs::Options fopt;
  fopt.shards = kServers;
  std::unique_ptr<fs::OrigamiFs> fsys;
  std::vector<double> generate_s;
  const double setup_s = timed_setup(
      [&] {
        fsys.reset();
        trace = wl::Trace{};
      },
      [&] {
        const auto t0 = Clock::now();
        {
          ScopedSpan span(round.spans, "wl.generate");
          wl::TraceFalconConfig cfg;
          cfg.seed = opt.seed;
          cfg.ops = round.sizes().falcon_ops;
          cfg.epochs = static_cast<std::uint32_t>(
              std::max<std::uint64_t>(3, cfg.ops / kFalconOpsPerEpoch));
          trace = wl::make_trace_falcon(cfg);
        }
        generate_s.push_back(seconds_since(t0));
        fsys = std::make_unique<fs::OrigamiFs>(fopt);
      });
  round.layers.set("wl.generate_s", quantile(generate_s, 0.5));

  PeakRss peak;
  const auto t_exp = Clock::now();
  LiveRun run = replay_live(round, trace, *fsys, workers, "fs.replay_on_live");
  const double experiment_s = seconds_since(t_exp);
  const double peak_rss_mb = peak.stop();
  const fs::LiveReplayStats& s = run.stats;

  RoundResult& out = round.result;
  out.setup_s = setup_s;
  out.experiment_s = experiment_s;
  out.peak_rss_mb = peak_rss_mb;
  round.record_mb("setup_rss_mb", peak.baseline_mb());
  out.replay_s = run.replay_s;
  out.attempted = trace.ops.size();
  out.failed = s.failed;
  round.record("ops", trace.ops.size());
  round.record("live_epochs", s.epochs);
  out.notes.push_back(describe_input("eval", trace));
  out.notes.push_back(fmt(
      "virtual: throughput %.0f ops/s, latency p50 %.1f us p99 %.1f us, %llu "
      "migrations, shard imbalance %.3f, invariants n/a (no faults)",
      s.throughput_ops, static_cast<double>(s.latency.quantile(0.5)) / 1e3,
      static_cast<double>(s.latency.quantile(0.99)) / 1e3,
      static_cast<unsigned long long>(s.migrations), s.shard_imbalance));

  // --- checks -------------------------------------------------------------
  const std::uint64_t executed =
      s.executed - (round.corrupt("executed_ops") ? 1 : 0);
  round.check("executed_ops", executed == trace.ops.size(),
              fmt("%llu executed of %zu",
                  static_cast<unsigned long long>(executed),
                  trace.ops.size()));
  const std::uint64_t failed = s.failed + (round.corrupt("no_failed_ops") ? 1 : 0);
  round.check("no_failed_ops", failed == 0,
              fmt("%llu failed", static_cast<unsigned long long>(failed)));
  check_shadow(round, trace, *fsys);

  if (!opt.traced) return;
  Layers& l = round.layers;
  l.set("fs.replay_s", run.replay_s);
  l.set("policy.live_epoch_s", round.span_total("policy.live_epoch"));
  l.set("fs.epoch_host_ms_p50", quantile(run.serve_ms, 0.5));
  l.set("fs.shard_imbalance", s.shard_imbalance);
  l.set("fs.migrations", static_cast<double>(s.migrations));
  kv::DbStats store;
  for (std::uint32_t i = 0; i < fsys->shard_count(); ++i) {
    store.merge(fsys->shard_db(i).stats());
  }
  record_store_layers(round, store);
  kv_probe(round, trace);

  // 1-thread reference of the live plane: same output, its own time.
  fs::OrigamiFs ref_fs(fopt);
  const LiveRun ref = replay_live(round, trace, ref_fs, 1, "fs.replay_on_live.1t");
  l.set("fs.ops_per_s_1t",
        ratio(static_cast<double>(ref.stats.executed), ref.replay_s));
  l.set("fs.thread_speedup", ratio(ref.replay_s, run.replay_s));
  std::string fp_1 = fingerprint(ref.stats);
  if (round.corrupt("live_fingerprint")) fp_1 += "!";
  round.check("live_fingerprint", fingerprint(s) == fp_1,
              fmt("%u shard workers vs 1", workers));
}

}  // namespace

RoundResult run_round(const RoundOptions& options, SpanRecorder& spans) {
  Round round{options, spans, {}, {}};
  {
    ScopedSpan span(spans, "round");
    if (options.workload == "rw-mltree") {
      run_rw_mltree(round);
    } else if (options.workload == "midas-faulted") {
      run_midas_faulted(round);
    } else if (options.workload == "falcon-live") {
      run_falcon_live(round);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "' (rw-mltree, midas-faulted, falcon-live)");
    }
  }
  if (options.traced) round.result.layers = round.layers.all();
  return std::move(round.result);
}

}  // namespace perfbench
