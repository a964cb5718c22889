#pragma once

// Byte-identity fingerprints shared by the golden tests and the
// regeneration tool (tools/arrival_goldens.cpp). A fingerprint serialises
// every observable counter of a run — virtual-clock metrics, the latency
// histogram shape, fault/recovery accounting, and the final ownership map —
// so two runs compare as whole strings. Doubles are rendered as hexfloats:
// equality means bit-identical arithmetic, not "close enough".

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <string_view>

#include "origami/cluster/metrics.hpp"
#include "origami/fs/live_replay.hpp"

namespace origami::testing {

/// A multi-line fingerprint as the body of a C string literal, for the
/// regeneration tools that print the committed goldens.
inline std::string escape_newlines(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// FNV-1a over bytes, for fingerprints of whole text blobs (saved models).
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string run_result_fingerprint(const cluster::RunResult& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.completed_ops << ' ' << r.makespan << ' ' << r.throughput_ops
      << ' ' << r.steady_throughput_ops << '\n';
  out << r.mean_latency_us << ' ' << r.p50_latency_us << ' '
      << r.p99_latency_us << ' ' << r.latency.count() << ' '
      << r.latency.mean() << ' ' << r.latency.max() << '\n';
  out << r.total_rpcs << ' ' << r.rpc_per_request << ' '
      << r.forwarded_requests << ' ' << r.migrations << ' '
      << r.inodes_migrated << '\n';
  out << r.imf_qps << ' ' << r.imf_rpc << ' ' << r.imf_inodes << ' '
      << r.imf_busy << '\n';
  const cluster::RobustnessStats& f = r.faults;
  out << f.retries << ' ' << f.timeouts << ' ' << f.rpcs_lost << ' '
      << f.rpcs_corrupted << ' ' << f.failed_ops << ' ' << f.crashes << ' '
      << f.failovers << ' ' << f.failover_dirs << ' ' << f.restored_dirs
      << ' ' << f.aborted_migrations << ' ' << f.time_down << ' '
      << f.time_degraded << '\n';
  out << f.journal_records << ' ' << f.journal_checkpoints << ' '
      << f.journal_replays << ' ' << f.journal_replayed_records << ' '
      << f.torn_tail_truncations << ' ' << f.fenced_rejections << ' '
      << f.prepared_migrations << ' ' << f.committed_migrations << ' '
      << f.recovery_windows << ' ' << f.recovery_window_time << '\n';
  out << f.group_commits << ' ' << f.group_commit_records << ' '
      << f.acked_lost_ops << ' ' << f.unacked_lost_ops << ' '
      << f.max_commit_lag << '\n';
  // Per-epoch MDS activity, folded into one line per epoch.
  out << r.epochs.size();
  for (const cluster::EpochMetrics& e : r.epochs) {
    std::uint64_t ops = 0, rpcs = 0;
    sim::SimTime busy = 0;
    for (const cluster::MdsEpochMetrics& m : e.mds) {
      ops += m.ops;
      rpcs += m.rpcs;
      busy += m.busy;
    }
    out << ' ' << ops << ':' << rpcs << ':' << busy << ':' << e.migrations;
  }
  out << '\n';
  // Final ownership map, FNV-1a folded.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t owner : r.final_dir_owner) {
    h ^= owner;
    h *= 1099511628211ull;
  }
  out << r.final_dir_owner.size() << ':' << h << '\n';
  return out.str();
}

inline std::string live_stats_fingerprint(const fs::LiveReplayStats& s) {
  std::ostringstream out;
  out << std::hexfloat;
  out << s.executed << ' ' << s.failed << ' ' << s.epochs << ' '
      << s.migrations << ' ' << s.shard_imbalance << '\n';
  for (std::uint64_t ops : s.shard_ops) out << ops << ' ';
  out << '\n';
  out << s.makespan << ' ' << s.throughput_ops << ' ' << s.latency.count()
      << ' ' << s.latency.mean() << ' ' << s.latency.min() << ' '
      << s.latency.max();
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    out << ' ' << s.latency.quantile(q);
  }
  out << '\n';
  for (sim::SimTime b : s.shard_busy) out << b << ' ';
  out << '\n';
  for (std::uint64_t n : s.shard_served) out << n << ' ';
  out << '\n';
  const cluster::RobustnessStats& f = s.faults;
  out << f.retries << ' ' << f.timeouts << ' ' << f.rpcs_lost << ' '
      << f.rpcs_corrupted << ' ' << f.failed_ops << ' ' << f.crashes << ' '
      << f.failovers << ' ' << f.failover_dirs << ' ' << f.restored_dirs
      << ' ' << f.aborted_migrations << ' ' << f.time_down << ' '
      << f.journal_records << ' ' << f.journal_checkpoints << ' '
      << f.journal_replays << ' ' << f.journal_replayed_records << ' '
      << f.torn_tail_truncations << ' ' << f.fenced_rejections << ' '
      << f.prepared_migrations << ' ' << f.committed_migrations << ' '
      << f.recovery_windows << '\n';
  return out.str();
}

}  // namespace origami::testing
