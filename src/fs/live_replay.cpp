#include "origami/fs/live_replay.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "origami/cluster/failover.hpp"
#include "origami/cluster/migration.hpp"
#include "origami/common/mpmc_queue.hpp"
#include "origami/wl/arrival.hpp"

namespace origami::fs {

namespace {

/// Lazily materialises trace-tree nodes in the live service, caching which
/// ids already exist and the live inode each directory node resolved to
/// (the fencing layer keys its client cache by inode).
class Materialiser {
 public:
  Materialiser(const fsns::DirTree& tree, OrigamiFs& fsys)
      : tree_(tree),
        fsys_(fsys),
        created_(tree.size(), false),
        ino_(tree.size(), kInvalidIno) {
    created_[fsns::kRootNode] = true;
    ino_[fsns::kRootNode] = kRootIno;
  }

  /// Ensures every *directory* ancestor of `id` exists (not `id` itself
  /// unless it is a directory and `include_self`), issuing the missing
  /// mkdirs root-first. The walk up stops at the first materialised node:
  /// nodes are only ever materialised after all their ancestors, so every
  /// node above it exists too. An unlink that marks a directory node absent
  /// breaks that, so from then on every walk goes up to the root.
  void ensure_dirs(fsns::NodeId id, bool include_self) {
    if (id == fsns::kRootNode) return;
    missing_.clear();
    for (fsns::NodeId node = include_self ? id : tree_.parent(id);
         node != fsns::kRootNode; node = tree_.parent(node)) {
      if (!created_[node]) {
        if (tree_.is_dir(node)) missing_.push_back(node);
      } else if (!dir_marked_absent_) {
        break;
      }
    }
    for (auto it = missing_.rbegin(); it != missing_.rend(); ++it) {
      tree_.full_path(*it, path_);
      if (auto r = fsys_.mkdir(path_); r.is_ok()) ino_[*it] = r.value();
      created_[*it] = true;
    }
  }

  void mark(fsns::NodeId id, bool exists) {
    created_[id] = exists;
    if (!exists && tree_.is_dir(id)) dir_marked_absent_ = true;
  }
  [[nodiscard]] bool exists(fsns::NodeId id) const { return created_[id]; }
  /// Live inode of a materialised directory node (kInvalidIno if unknown).
  [[nodiscard]] Ino ino_of(fsns::NodeId id) const { return ino_[id]; }

 private:
  const fsns::DirTree& tree_;
  OrigamiFs& fsys_;
  std::vector<bool> created_;
  std::vector<Ino> ino_;
  bool dir_marked_absent_ = false;
  std::vector<fsns::NodeId> missing_;  ///< ensure_dirs scratch, leaf-first
  std::string path_;                   ///< ensure_dirs scratch mkdir path
};

/// One fully-priced request as handed to a shard-serving worker. The
/// issuer stamps every field before dispatch, so workers do no namespace
/// or clock arithmetic of their own — each shard's task stream (and hence
/// its journal/measurement state) is identical at any worker count.
struct ShardTask {
  std::uint32_t shard = 0;
  std::uint64_t op_id = 0;       ///< journal op id; 0 = nothing to journal
  fsns::NodeId home = 0;         ///< journal node (the home dir's inode)
  sim::SimTime stamp = 0;        ///< shard-clock completion time
  sim::SimTime service = 0;      ///< busy time charged to the shard
  std::uint64_t latency_ns = 0;  ///< client-observed request latency
};

using TaskBatch = std::vector<ShardTask>;

/// Per-shard measurement-plane accumulator, owned exclusively by the
/// worker serving that shard and merged in shard order at finalize.
struct ShardPartial {
  common::LatencyHistogram latency;
  sim::SimTime busy = 0;
  std::uint64_t served = 0;
};

/// The live-mode twin of the simulator's exec/failover/migration stack,
/// sharing its building blocks (FaultInjector sampling, FaultTimeline,
/// TwoPhaseLog, MetadataJournal), now with a real serving plane:
///
///  - a serial *issuer* (the calling thread) resolves and mutates the
///    namespace in seed op order, runs the retry/fencing client model, and
///    prices every request on a cost-model virtual clock (per-client ready
///    times, per-shard logical clocks, Eq. 2 service charges, straggler
///    multipliers);
///  - `shard_threads` *serving workers* consume fully-stamped per-shard
///    task batches over bounded MPMC lanes (worker `s % T` serves shard
///    `s`) and own the measurement plane (latency histograms, busy
///    clocks) and the durability plane (journal appends, group-commit
///    flush decisions on the shard clock);
///  - with faults armed, the issuer drains the lanes every `sync_ops`
///    operations and fires due crashes/recoveries plus the commit-window
///    sweep against the quiesced journals and stores.
///
/// Determinism: workers only touch state partitioned by shard, task
/// streams per shard are fixed by the serial issuer, and partials merge in
/// shard order — so output is byte-identical at any `shard_threads`.
class LiveEngine final : public LiveFaultContext {
 public:
  LiveEngine(const wl::Trace& trace, OrigamiFs& fsys,
             const LiveReplayOptions& opt)
      : trace_(trace),
        fsys_(fsys),
        opt_(opt),
        faults_on_(opt.faults.enabled()),
        async_(faults_on_ && opt.recovery.commit_mode ==
                                 recovery::CommitMode::kAsync),
        kv_async_(async_ && fsys.shard_count() > 0 &&
                  fsys.shard_db(0).options().commit_mode ==
                      kv::CommitMode::kAsync),
        injector_(opt.faults, fsys.shard_count()),
        loss_rng_(opt.faults.seed ^ 0x11febeefULL),
        arrival_(wl::resolve_arrival(opt.arrival, opt.issue_rate,
                                     /*poisson_legacy=*/false,
                                     {&trace, opt.clients})),
        arrival_rng_(opt.faults.seed ^ 0xa114a1ULL),
        model_(opt.cost),
        mat_(trace.tree, fsys) {
    const std::uint32_t n = std::max<std::uint32_t>(1, fsys_.shard_count());
    shard_clock_.assign(n, 0);
    client_ready_.assign(std::max<std::uint32_t>(1, opt_.clients), 0);
    sync_ops_ = std::max<std::uint64_t>(1, opt_.sync_ops);
    fault_epoch_len_ = std::max<sim::SimTime>(1, opt_.fault_epoch);
    if (faults_on_) {
      down_.assign(n, false);
      down_until_.assign(n, 0);
      timeline_.resize(n);
      stragglers_.resize(n);
      strag_cursor_.assign(n, 0);
      journals_.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) journals_.emplace_back(opt_.recovery);
    }
    start_workers(n);
  }

  ~LiveEngine() override {
    // Exceptional-path teardown; the orderly path joins in finalize().
    for (auto& lane : lanes_) lane->close();
    for (auto& th : threads_) {
      if (th.joinable()) th.join();
    }
  }

  LiveReplayStats run() {
    std::uint64_t since_epoch = 0;
    for (std::size_t i = 0; i < trace_.ops.size(); ++i) {
      // Fault/commit sync point: quiesce the serving plane, then fire
      // everything due on the virtual clock against the idle journals.
      if (faults_on_ && i % sync_ops_ == 0) sync_point();

      const wl::MetaOp& op = trace_.ops[i];
      const fsns::NodeId home_node = trace_.tree.is_dir(op.target)
                                         ? op.target
                                         : trace_.tree.parent(op.target);
      const auto client =
          static_cast<std::uint32_t>(i % client_ready_.size());
      // The arrival plane stamps when this op enters the system: closed
      // loops chain off the issuing client's previous completion; open
      // loops are a pure time process on the virtual clock.
      sim::SimTime arrival;
      if (arrival_->closed_loop()) {
        arrival = client_ready_[client];
      } else {
        arrival = i == 0 ? arrival_->first_arrival()
                         : arrival_->next_arrival(i, prev_arrival_,
                                                  arrival_rng_);
        prev_arrival_ = arrival;
      }
      sim::SimTime ready = arrival;

      if (faults_on_ && !deliver_with_retries(ready)) {
        // Retry budget exhausted: the request is abandoned client-side;
        // the client still burned the timeouts and backoffs.
        ++stats_.faults.failed_ops;
        client_ready_[client] = std::max(client_ready_[client], ready);
        vnow_ = std::max(vnow_, ready);
        continue;
      }
      if (faults_on_ && opt_.recovery.fencing &&
          fence(mat_.ino_of(home_node))) {
        ready += opt_.cost.rtt;  // bounced once, re-resolves at the owner
      }

      const common::Status status = execute(op);
      ++stats_.executed;
      if (!status.is_ok()) ++stats_.failed;

      dispatch(op, home_node, client, arrival, ready);

      if (opt_.on_epoch != nullptr && opt_.epoch_ops > 0 &&
          ++since_epoch >= opt_.epoch_ops) {
        since_epoch = 0;
        // The balancer narrates two-phase transitions into the journals,
        // which the workers own — quiesce them first. Clean mode touches
        // no shared state, so the pipeline keeps streaming.
        if (faults_on_) drain_workers();
        ++stats_.epochs;
        stats_.migrations += opt_.on_epoch(fsys_, *this);
      }
    }
    finalize();
    return std::move(stats_);
  }

  // --- LiveFaultContext ----------------------------------------------------
  [[nodiscard]] bool shard_down(std::uint32_t shard) const override {
    return faults_on_ && shard < down_.size() && down_[shard];
  }

  void record_prepare(Ino subtree, std::uint32_t from,
                      std::uint32_t to) override {
    if (!faults_on_) return;
    two_phase_.add(subtree);
    cluster::TwoPhaseLog::record(
        recovery::JournalRecordKind::kPrepare,
        static_cast<fsns::NodeId>(subtree), from, to,
        fsys_.ownership_epoch(subtree), vnow_, journal_if_up(from),
        journal_if_up(to), nullptr);
    ++stats_.faults.prepared_migrations;
  }

  void record_commit(Ino subtree, std::uint32_t from,
                     std::uint32_t to) override {
    if (!faults_on_) return;
    two_phase_.remove(subtree);
    cluster::TwoPhaseLog::record(
        recovery::JournalRecordKind::kCommit,
        static_cast<fsns::NodeId>(subtree), from, to,
        fsys_.ownership_epoch(subtree), vnow_, journal_if_up(from),
        journal_if_up(to), nullptr);
    ++stats_.faults.committed_migrations;
  }

  void record_abort(Ino subtree, std::uint32_t from,
                    std::uint32_t to) override {
    if (!faults_on_) return;
    two_phase_.remove(subtree);
    cluster::TwoPhaseLog::record(
        recovery::JournalRecordKind::kAbort,
        static_cast<fsns::NodeId>(subtree), from, to,
        fsys_.ownership_epoch(subtree), vnow_, journal_if_up(from),
        journal_if_up(to), nullptr);
    ++stats_.faults.aborted_migrations;
  }

 private:
  struct FailoverEntry {
    Ino dir;
    std::uint32_t original;
    std::uint32_t assigned;
  };

  struct StragglerWindow {
    sim::SimTime from;
    sim::SimTime until;
    double factor;
  };

  static constexpr std::size_t kBatchSize = 64;  ///< tasks per lane batch
  static constexpr std::size_t kLaneDepth = 64;  ///< batches per lane

  static bool is_mutation(fsns::OpType type) {
    switch (type) {
      case fsns::OpType::kCreate:
      case fsns::OpType::kMkdir:
      case fsns::OpType::kUnlink:
      case fsns::OpType::kRmdir:
      case fsns::OpType::kRename:
      case fsns::OpType::kSetattr:
        return true;
      default:
        return false;
    }
  }

  [[nodiscard]] recovery::MetadataJournal* journal_if_up(std::uint32_t shard) {
    if (shard >= journals_.size() || down_[shard]) return nullptr;
    return &journals_[shard];
  }

  // --- serving plane -------------------------------------------------------

  void start_workers(std::uint32_t shards) {
    partials_.resize(shards);
    workers_ = std::max<std::uint32_t>(1, opt_.shard_threads);
    lanes_.reserve(workers_);
    batch_buf_.resize(workers_);
    for (std::uint32_t w = 0; w < workers_; ++w) {
      lanes_.push_back(
          std::make_unique<common::BoundedMpmcQueue<TaskBatch>>(kLaneDepth));
      batch_buf_[w].reserve(kBatchSize);
    }
    threads_.reserve(workers_);
    for (std::uint32_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_main(w); });
    }
  }

  void worker_main(std::uint32_t w) {
    while (auto batch = lanes_[w]->pop()) {
      try {
        for (const ShardTask& t : *batch) apply(t);
      } catch (...) {
        std::lock_guard lock(error_mutex_);
        if (worker_error_ == nullptr) worker_error_ = std::current_exception();
      }
      {
        std::lock_guard lock(done_mutex_);
        ++completed_batches_;
      }
      done_cv_.notify_all();
    }
  }

  /// Serving-worker body: measurement plane plus journal durability plane
  /// for one stamped request. Touches only state owned by `t.shard`.
  void apply(const ShardTask& t) {
    ShardPartial& p = partials_[t.shard];
    p.latency.add(t.latency_ns);
    p.busy += t.service;
    ++p.served;
    if (t.op_id == 0) return;
    recovery::MetadataJournal& journal = journals_[t.shard];
    journal.append_op(t.op_id, t.home, t.stamp);
    if (!async_) return;
    // Live calls return synchronously, so the ack lands with the append;
    // durability still waits for the group commit. The serving thread
    // decides its own flushes on the shard clock: batch size first, then
    // the commit-window age of the oldest buffered record.
    journal.note_acked(t.op_id, t.stamp);
    const bool batch_due =
        journal.pending_records() >= opt_.recovery.commit_batch;
    const bool age_due =
        journal.pending_records() > 0 &&
        t.stamp - journal.oldest_pending_at() >= opt_.recovery.commit_window;
    if (batch_due || age_due) (void)journal.flush(t.stamp);
  }

  void flush_batch(std::uint32_t w) {
    if (batch_buf_[w].empty()) return;
    // A rejected push means the lane closed mid-run — that only happens on
    // teardown, so losing the batch silently would corrupt the stats.
    if (!lanes_[w]->push(std::move(batch_buf_[w]))) {
      throw std::runtime_error("live serving lane closed during dispatch");
    }
    ++dispatched_batches_;
    batch_buf_[w] = TaskBatch();
    batch_buf_[w].reserve(kBatchSize);
  }

  /// Barrier: every dispatched batch has been fully applied by its worker.
  void drain_workers() {
    for (std::uint32_t w = 0; w < workers_; ++w) flush_batch(w);
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock,
                  [&] { return completed_batches_ == dispatched_batches_; });
    lock.unlock();
    rethrow_worker_error();
  }

  void rethrow_worker_error() {
    std::lock_guard lock(error_mutex_);
    if (worker_error_ != nullptr) {
      std::exception_ptr err = std::exchange(worker_error_, nullptr);
      std::rethrow_exception(err);
    }
  }

  // --- virtual clock -------------------------------------------------------

  /// Prices the executed request on the virtual clock and hands the fully
  /// stamped task to the owning shard worker.
  void dispatch(const wl::MetaOp& op, fsns::NodeId home_node,
                std::uint32_t client, sim::SimTime arrival,
                sim::SimTime ready) {
    const Ino home = mat_.ino_of(home_node);
    const std::uint32_t shard =
        home != kInvalidIno ? fsys_.dir_shard(home) : fsys_.dir_shard(kRootIno);
    // Eq. 2 inputs from the namespace the request actually resolved:
    // k path components, m distinct owners along the materialised ancestor
    // chain (m > 1 also marks a cross-shard mutation for the T_coor term).
    const std::uint32_t k = trace_.tree.path_length(op.target);
    const std::uint32_t m = distinct_owners(home_node, shard);
    sim::SimTime service = model_.t_meta(op.type, k, m, 0, m > 1);
    const sim::SimTime start = std::max(ready, shard_clock_[shard]);
    if (faults_on_) service = straggler_adjust(shard, start, service);
    shard_clock_[shard] = start + service;
    const sim::SimTime completion =
        shard_clock_[shard] + opt_.cost.rtt * static_cast<sim::SimTime>(m);
    client_ready_[client] = completion;
    vnow_ = std::max(vnow_, completion);

    ShardTask task;
    task.shard = shard;
    task.stamp = shard_clock_[shard];
    task.service = service;
    task.latency_ns = static_cast<std::uint64_t>(completion - arrival);
    if (faults_on_ && is_mutation(op.type) && home != kInvalidIno) {
      task.op_id = ++next_op_id_;
      task.home = static_cast<fsns::NodeId>(home);
    }
    const std::uint32_t w = shard % workers_;
    batch_buf_[w].push_back(task);
    if (batch_buf_[w].size() >= kBatchSize) flush_batch(w);
  }

  /// Distinct shard owners along the materialised ancestor chain of the
  /// request's home directory (always includes the home shard itself).
  [[nodiscard]] std::uint32_t distinct_owners(fsns::NodeId home_node,
                                              std::uint32_t home_shard) {
    owners_buf_.clear();
    owners_buf_.push_back(home_shard);
    fsns::NodeId n = home_node;
    while (n != fsns::kRootNode) {
      n = trace_.tree.parent(n);
      const Ino ino = mat_.ino_of(n);
      if (ino == kInvalidIno) continue;
      const std::uint32_t o = fsys_.dir_shard(ino);
      if (std::find(owners_buf_.begin(), owners_buf_.end(), o) ==
          owners_buf_.end()) {
        owners_buf_.push_back(o);
      }
    }
    return static_cast<std::uint32_t>(owners_buf_.size());
  }

  /// Multiplies the service charge while `shard` sits inside a straggler
  /// window at `start`. Per-shard start times are monotone, so a cursor
  /// retires expired windows.
  [[nodiscard]] sim::SimTime straggler_adjust(std::uint32_t shard,
                                              sim::SimTime start,
                                              sim::SimTime service) {
    ensure_fault_epochs(start);
    auto& windows = stragglers_[shard];
    std::size_t& cur = strag_cursor_[shard];
    while (cur < windows.size() && windows[cur].until <= start) ++cur;
    double factor = 1.0;
    for (std::size_t j = cur; j < windows.size() && windows[j].from <= start;
         ++j) {
      if (windows[j].until > start) factor = std::max(factor, windows[j].factor);
    }
    if (factor > 1.0) {
      service = static_cast<sim::SimTime>(static_cast<double>(service) * factor);
    }
    return service;
  }

  // --- fault plane ---------------------------------------------------------

  /// Materialises fault-sampling epochs through virtual time `t`. Sampling
  /// is keyed by (seed, epoch, shard), so on-demand materialisation is
  /// identical no matter when or how often it happens.
  void ensure_fault_epochs(sim::SimTime t) {
    while (static_cast<sim::SimTime>(next_fault_epoch_) * fault_epoch_len_ <=
           t) {
      const std::uint32_t e = next_fault_epoch_++;
      const sim::SimTime start =
          static_cast<sim::SimTime>(e) * fault_epoch_len_;
      auto windows = injector_.windows_for_epoch(e, start, fault_epoch_len_);
      std::stable_sort(windows.begin(), windows.end(),
                       [](const fault::FaultWindow& a,
                          const fault::FaultWindow& b) {
                         return a.from < b.from;
                       });
      for (const fault::FaultWindow& w : windows) {
        if (w.mds >= shard_clock_.size()) continue;
        if (w.kind == fault::FaultKind::kCrash) {
          crashes_.push_back(w);
        } else {
          stragglers_[w.mds].push_back({w.from, w.until, w.slow_factor});
          stats_.faults.time_degraded += w.until - w.from;
        }
      }
    }
  }

  /// Runs at every `sync_ops` boundary with the serving plane quiesced:
  /// fires recoveries and crashes due on the virtual clock, then sweeps
  /// aged commit windows (and the shard stores' group commits).
  void sync_point() {
    drain_workers();
    ensure_fault_epochs(vnow_);
    // Recoveries first, so a shard may crash again in the same sweep.
    for (std::uint32_t s = 0; s < down_.size(); ++s) {
      if (down_[s] && vnow_ >= down_until_[s]) recover(s);
    }
    while (crash_cursor_ < crashes_.size() &&
           crashes_[crash_cursor_].from <= vnow_) {
      const fault::FaultWindow w = crashes_[crash_cursor_++];
      if (!down_[w.mds]) crash(w);
    }
    if (async_) flush_due();
  }

  void crash(const fault::FaultWindow& w) {
    const std::uint32_t s = w.mds;
    const sim::SimTime until = std::max(w.until, vnow_ + 1);
    ++stats_.faults.crashes;
    stats_.faults.time_down += until - vnow_;
    down_[s] = true;
    down_until_[s] = until;
    timeline_.note(s, vnow_, until);
    if (async_) {
      // The commit buffer dies with the shard; the durability window
      // classifies the swept records (acked-but-lost vs unacked-and-lost)
      // and finalize() rolls them into the stats.
      (void)journals_[s].crash_drop_pending(vnow_);
      if (kv_async_) {
        // The real store crashes with the process: its commit buffer is
        // swept, its WAL tail torn, and recovery replays the surviving
        // durable prefix into a fresh memtable.
        kv::Db& store = fsys_.shard_db(s);
        const kv::Db::LossReport loss =
            store.simulate_crash(/*tear_wal_tail=*/true);
        kv::WalReplayStats replay;
        (void)store.recover(&replay);
        ++stats_.faults.kv_crash_recoveries;
        stats_.faults.kv_replayed_records += replay.records;
        stats_.faults.kv_acked_lost_records += loss.acked_lost.size();
      }
    }
    journals_[s].simulate_torn_write();

    // Fail the dead shard's fragments over to the least-loaded survivors,
    // recording the handoff so recovery can restore it.
    auto shard_stats = fsys_.shard_stats();
    std::vector<std::uint64_t> entries(shard_stats.size(), 0);
    for (std::size_t i = 0; i < shard_stats.size(); ++i) {
      entries[i] = shard_stats[i].entries;
    }
    std::uint64_t moved_dirs = 0;
    for (const Ino dir : fsys_.dirs_owned_by(s)) {
      const std::uint32_t target = least_loaded_survivor(entries, s);
      if (target == s) break;  // no survivor left to absorb anything
      auto r = fsys_.reassign_dir(dir, target);
      if (!r.is_ok()) continue;
      entries[target] += r.value();
      failover_log_.push_back({dir, s, target});
      journals_[target].append_migration(
          recovery::JournalRecordKind::kFailover,
          static_cast<fsns::NodeId>(dir), s, target,
          fsys_.ownership_epoch(dir));
      ++moved_dirs;
    }
    // The survivors replay the dead shard's journal (torn tail truncated)
    // to re-establish its acknowledged mutations.
    const auto outcome = journals_[s].recover_replay();
    ++stats_.faults.journal_replays;
    stats_.faults.journal_replayed_records += outcome.replayed_records;
    if (moved_dirs > 0) {
      ++stats_.faults.failovers;
      stats_.faults.failover_dirs += moved_dirs;
      ++stats_.faults.recovery_windows;
    }
  }

  void recover(std::uint32_t s) {
    down_[s] = false;
    for (const FailoverEntry& e : failover_log_) {
      if (e.original != s) continue;
      // Hand back only fragments still where failover parked them (the
      // balancer may have legitimately moved them since).
      if (fsys_.dir_shard(e.dir) != e.assigned) continue;
      if (fsys_.reassign_dir(e.dir, s).is_ok()) {
        journals_[s].append_migration(recovery::JournalRecordKind::kRestore,
                                      static_cast<fsns::NodeId>(e.dir),
                                      e.assigned, s,
                                      fsys_.ownership_epoch(e.dir));
        ++stats_.faults.restored_dirs;
      }
    }
    std::erase_if(failover_log_, [s](const FailoverEntry& e) {
      return e.original == s;
    });
  }

  [[nodiscard]] std::uint32_t least_loaded_survivor(
      const std::vector<std::uint64_t>& entries, std::uint32_t dead) const {
    std::uint32_t best = dead;
    for (std::uint32_t s = 0; s < entries.size(); ++s) {
      if (s == dead || down_[s]) continue;
      if (best == dead || entries[s] < entries[best]) best = s;
    }
    return best;
  }

  /// Client-side delivery: message loss/corruption triggers the bounded
  /// retry loop, charging each attempt's detection timeout and backoff to
  /// the client's clock. Returns false when the retry budget is exhausted.
  bool deliver_with_retries(sim::SimTime& ready) {
    if (opt_.faults.rpc_loss_prob <= 0.0 &&
        opt_.faults.rpc_corrupt_prob <= 0.0) {
      return true;
    }
    std::uint32_t attempt = 0;
    while (delivery_fails()) {
      ++stats_.faults.timeouts;
      ready += opt_.retry.timeout;
      if (attempt++ >= opt_.retry.max_retries) return false;
      ++stats_.faults.retries;
      ready += opt_.retry.backoff_for(attempt, loss_rng_);
    }
    return true;
  }

  bool delivery_fails() {
    if (opt_.faults.rpc_loss_prob > 0.0 &&
        loss_rng_.chance(opt_.faults.rpc_loss_prob)) {
      ++stats_.faults.rpcs_lost;
      return true;
    }
    if (opt_.faults.rpc_corrupt_prob > 0.0 &&
        loss_rng_.chance(opt_.faults.rpc_corrupt_prob)) {
      ++stats_.faults.rpcs_corrupted;
      return true;
    }
    return false;
  }

  /// Ownership-epoch fencing: a client whose cached route predates the
  /// fragment's current epoch is bounced once and re-resolves. Returns
  /// whether the request was bounced (the bounce costs an extra RTT).
  bool fence(Ino home) {
    if (home == kInvalidIno) return false;
    const std::uint32_t current = fsys_.ownership_epoch(home);
    const auto [it, inserted] = cached_.try_emplace(home, current);
    if (!inserted && it->second != current) {
      ++stats_.faults.fenced_rejections;
      it->second = current;
      return true;
    }
    return false;
  }

  /// Async mode, at a sync point (workers idle): group-commit every shard
  /// whose oldest buffered record aged past the commit window, and let the
  /// real stores group-commit whatever their own triggers left buffered.
  void flush_due() {
    for (std::uint32_t s = 0; s < journals_.size(); ++s) {
      recovery::MetadataJournal& journal = journals_[s];
      if (journal.pending_records() == 0) continue;
      if (vnow_ - journal.oldest_pending_at() >= opt_.recovery.commit_window) {
        (void)journal.flush(vnow_);
      }
    }
    if (kv_async_) {
      for (std::uint32_t s = 0; s < fsys_.shard_count(); ++s) {
        (void)fsys_.shard_db(s).commit();
      }
    }
  }

  common::Status execute(const wl::MetaOp& op) {
    const auto& tree = trace_.tree;
    tree.full_path(op.target, path_);
    const std::string& path = path_;
    common::Status status = common::Status::ok();
    switch (op.type) {
      case fsns::OpType::kCreate: {
        mat_.ensure_dirs(op.target, false);
        if (mat_.exists(op.target)) {
          status = fsys_.setattr(path, {});  // replayed re-create = overwrite
        } else {
          auto r = fsys_.create(path);
          status = r.is_ok() ? common::Status::ok() : r.status();
          if (r.is_ok()) mat_.mark(op.target, true);
        }
        break;
      }
      case fsns::OpType::kMkdir: {
        mat_.ensure_dirs(op.target, true);
        break;
      }
      case fsns::OpType::kUnlink: {
        if (mat_.exists(op.target)) {
          status = fsys_.unlink(path);
          mat_.mark(op.target, false);
        }
        break;
      }
      case fsns::OpType::kRmdir: {
        // Replayed namespaces keep using removed dirs; skip real removal.
        break;
      }
      case fsns::OpType::kRename: {
        // Renames would desynchronise the path mapping; model the load as
        // a metadata write on the entry instead.
        mat_.ensure_dirs(op.target, tree.is_dir(op.target));
        if (!tree.is_dir(op.target) && !mat_.exists(op.target)) {
          auto r = fsys_.create(path);
          if (r.is_ok()) mat_.mark(op.target, true);
        }
        status = fsys_.setattr(path, {});
        break;
      }
      case fsns::OpType::kStat:
      case fsns::OpType::kOpen: {
        mat_.ensure_dirs(op.target, tree.is_dir(op.target));
        if (!tree.is_dir(op.target) && !mat_.exists(op.target)) {
          auto r = fsys_.create(path);
          if (r.is_ok()) mat_.mark(op.target, true);
        }
        status = fsys_.stat(path).is_ok() ? common::Status::ok()
                                          : common::Status::not_found(path);
        break;
      }
      case fsns::OpType::kSetattr: {
        mat_.ensure_dirs(op.target, tree.is_dir(op.target));
        if (!tree.is_dir(op.target) && !mat_.exists(op.target)) {
          auto r = fsys_.create(path);
          if (r.is_ok()) mat_.mark(op.target, true);
        }
        status = fsys_.setattr(path, {});
        break;
      }
      case fsns::OpType::kReaddir: {
        mat_.ensure_dirs(op.target, true);
        status = fsys_.readdir(path).is_ok() ? common::Status::ok()
                                             : common::Status::not_found(path);
        break;
      }
    }
    return status;
  }

  void finalize() {
    // Orderly shutdown of the serving plane: drain, close, join, surface
    // any worker failure, then merge the per-shard partials in shard order
    // (the determinism discipline — identical at any worker count).
    drain_workers();
    for (auto& lane : lanes_) lane->close();
    for (auto& th : threads_) {
      if (th.joinable()) th.join();
    }
    rethrow_worker_error();
    for (const ShardPartial& p : partials_) {
      stats_.latency.merge(p.latency);
      stats_.shard_busy.push_back(p.busy);
      stats_.shard_served.push_back(p.served);
    }
    stats_.makespan = vnow_;
    stats_.throughput_ops =
        vnow_ > 0 ? static_cast<double>(stats_.executed) * 1e9 /
                        static_cast<double>(vnow_)
                  : 0.0;

    const auto shard_stats = fsys_.shard_stats();
    std::vector<double> loads;
    for (const ShardStats& st : shard_stats) {
      stats_.shard_ops.push_back(st.lookups + st.mutations);
      loads.push_back(static_cast<double>(st.lookups + st.mutations));
    }
    stats_.shard_imbalance = cost::imbalance_factor(loads);
    if (async_) {
      // Clean shutdown: surviving buffers flush, so only crash-dropped
      // records stay non-durable. The real stores drain in lockstep.
      for (recovery::MetadataJournal& j : journals_) (void)j.flush(vnow_);
      if (kv_async_) {
        for (std::uint32_t s = 0; s < fsys_.shard_count(); ++s) {
          (void)fsys_.shard_db(s).commit();
        }
      }
    }
    for (const recovery::MetadataJournal& j : journals_) {
      stats_.faults.journal_records += j.appended();
      stats_.faults.journal_checkpoints += j.checkpoints();
      stats_.faults.torn_tail_truncations += j.torn_truncations();
      if (!async_) continue;
      stats_.faults.group_commits += j.group_commits();
      stats_.faults.group_commit_records += j.group_commit_records();
      stats_.faults.max_commit_lag = std::max(
          stats_.faults.max_commit_lag, j.durability().max_ack_to_durable());
      for (const auto& rec : j.durability().history()) {
        if (rec.lost_at == recovery::DurabilityWindow::kNever) continue;
        if (rec.acked_at != recovery::DurabilityWindow::kNever) {
          ++stats_.faults.acked_lost_ops;
        } else {
          ++stats_.faults.unacked_lost_ops;
        }
      }
    }
  }

  const wl::Trace& trace_;
  OrigamiFs& fsys_;
  const LiveReplayOptions& opt_;
  bool faults_on_;
  bool async_;     ///< group-committed journaling (kAsync with faults armed)
  bool kv_async_;  ///< the shard stores group-commit too (kAsync DbOptions)
  fault::FaultInjector injector_;
  common::Xoshiro256 loss_rng_;
  /// The request-arrival process (wl/arrival.hpp), shared implementation
  /// with the epoch DES. Closed-loop policies read `client_ready_`;
  /// open-loop policies run on the virtual clock via `prev_arrival_`.
  std::unique_ptr<wl::ArrivalPolicy> arrival_;
  /// Issuer-owned stream for arrival policies that draw (e.g. "open" run
  /// live). Never touched by the serving plane, so thread count is moot.
  common::Xoshiro256 arrival_rng_;
  cost::CostModel model_;
  Materialiser mat_;

  // Virtual clock (all issuer-owned).
  std::vector<sim::SimTime> shard_clock_;   ///< per-shard logical time B_s
  std::vector<sim::SimTime> client_ready_;  ///< per-client next-issue time
  sim::SimTime vnow_ = 0;                   ///< max completion seen so far
  sim::SimTime prev_arrival_ = 0;           ///< open loop: last stamped arrival
  std::uint64_t sync_ops_ = 512;
  sim::SimTime fault_epoch_len_ = 1;
  std::vector<std::uint32_t> owners_buf_;  ///< scratch for distinct_owners
  std::string path_;                       ///< scratch: the executed op's path

  // Fault plane (issuer-owned; journals handed to workers between syncs).
  std::uint32_t next_fault_epoch_ = 0;
  std::vector<fault::FaultWindow> crashes_;  ///< crash windows, from-sorted
  std::size_t crash_cursor_ = 0;
  std::vector<std::vector<StragglerWindow>> stragglers_;  ///< per shard
  std::vector<std::size_t> strag_cursor_;
  std::vector<bool> down_;
  std::vector<sim::SimTime> down_until_;
  cluster::FaultTimeline timeline_;
  std::vector<recovery::MetadataJournal> journals_;
  std::vector<FailoverEntry> failover_log_;
  cluster::TwoPhaseLog two_phase_;
  std::unordered_map<Ino, std::uint32_t> cached_;  // client route cache
  std::uint64_t next_op_id_ = 0;

  // Serving plane.
  std::uint32_t workers_ = 1;
  std::vector<std::unique_ptr<common::BoundedMpmcQueue<TaskBatch>>> lanes_;
  std::vector<TaskBatch> batch_buf_;  ///< issuer-side per-worker batches
  std::vector<ShardPartial> partials_;  ///< by shard; owner-worker only
  std::vector<std::thread> threads_;
  std::uint64_t dispatched_batches_ = 0;  ///< issuer-only
  std::uint64_t completed_batches_ = 0;   ///< guarded by done_mutex_
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::mutex error_mutex_;
  std::exception_ptr worker_error_;

  LiveReplayStats stats_;
};

}  // namespace

LiveReplayStats replay_on_live(const wl::Trace& trace, OrigamiFs& fsys,
                               const LiveReplayOptions& options) {
  LiveEngine engine(trace, fsys, options);
  return engine.run();
}

}  // namespace origami::fs
