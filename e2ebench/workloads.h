// The four e2e workloads and what they share: the run state, timed
// operations, repeated set-up and the per-layer probes.

#ifndef GREPAIR_E2EBENCH_WORKLOADS_H_
#define GREPAIR_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "e2ebench/harness.h"
#include "e2ebench/model.h"
#include "e2ebench/trace.h"
#include "src/api/graph_codec.h"
#include "src/datasets/generators.h"
#include "src/shard/sharded_codec.h"
#include "src/util/status.h"

namespace grepair {
namespace e2e {

/// Sharding used by every workload's corpus (the paper-scale default
/// of the sharded bench family).
inline constexpr int kShards = 16;

/// A run sets up at least kSetupRepeats times and until
/// kSetupMinSeconds have passed; setup_s is the median. Cheap set-ups
/// repeat more often, so their median is not a handful of short,
/// noisy readings.
inline constexpr int kSetupRepeats = 3;
inline constexpr double kSetupMinSeconds = 2.0;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;          ///< min(4, nproc): compress threads, pool size
  std::string scratch_dir;  ///< temporary files; removed at exit
};

/// State of one workload run.
struct Run {
  explicit Run(RunConfig c) : config(std::move(c)), tracer(config.trace) {}

  RunConfig config;
  Tracer tracer;
  Report report;
  Tally tally;
  LatencySampler ops;               ///< every timed operation, in µs
  std::vector<double> setup_s;      ///< one entry per set-up
  Clock::time_point phase_start{};  ///< start of the timed phase
  /// Peak resident set during the timed phase, in MiB: what the set-up
  /// left resident plus what the phase added. Set-up peaks (generator
  /// graphs, compressing the corpus) do not count.
  double phase_peak_rss_mb = 0;
  /// CPU time of every thread of the process during the timed phase,
  /// less the main thread's CPU time in HarnessWork: what the system
  /// spent on the operations.
  double op_cpu_s = 0;
  double harness_cpu_s = 0;  ///< HarnessWork CPU time so far

  Clock::time_point deadline() const {
    return phase_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(config.seconds));
  }
  void StartPhase() {
#ifdef __GLIBC__
    // Hand the set-ups' freed heap back to the system first, so the
    // phase starts from what is live rather than from malloc's cache.
    malloc_trim(0);
#endif
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "note: cannot reset the peak resident set; "
                           "peak_rss_mb includes set-up\n");
    }
    harness_cpu_s = 0;
    phase_cpu_start_ = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    phase_start = Clock::now();
  }
  void EndPhase() {
    const Clock::time_point end = Clock::now();
    op_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - phase_cpu_start_ -
               harness_cpu_s;
    phase_peak_rss_mb = PeakRssMb();
    tracer.SetWindow(phase_start, end);
  }

  /// Times `fn()` as one operation and returns its result; `*us`
  /// receives the latency.
  template <typename Fn>
  auto Op(double* us, Fn&& fn) -> decltype(fn()) {
    auto t0 = Clock::now();
    auto result = fn();
    *us = Micros(t0, Clock::now());
    ops.Add(*us);
    ++tally.attempted;
    return result;
  }

  /// Checks `status`; a failure counts against the run.
  bool Check(const Status& status, const char* what) {
    if (status.ok()) return true;
    tally.Fail(std::string(what) + ": " + status.ToString());
    return false;
  }

 private:
  double phase_cpu_start_ = 0;
};

/// \brief The benchmark's own work inside the timed phase (drawing
/// inputs, checking answers): a bench.* span whose CPU time on the
/// calling thread is kept out of op_cpu_us.
class HarnessWork {
 public:
  HarnessWork(Run* run, const char* span, uint64_t request)
      : run_(run),
        span_(&run->tracer, span, request),
        cpu0_(CpuSeconds(CLOCK_THREAD_CPUTIME_ID)) {}
  ~HarnessWork() {
    run_->harness_cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0_;
  }
  HarnessWork(const HarnessWork&) = delete;
  HarnessWork& operator=(const HarnessWork&) = delete;

 private:
  Run* run_;
  Tracer::Span span_;
  double cpu0_;
};

/// Times one layer call of an operation under its own span; `*seconds`
/// receives its duration.
template <typename Fn>
auto Stage(Run* run, const char* span, uint64_t request, double* seconds,
           Fn&& fn) -> decltype(fn()) {
  Tracer::Span scope(&run->tracer, span, request);
  auto t0 = Clock::now();
  auto result = fn();
  *seconds = Seconds(t0, Clock::now());
  return result;
}

/// Runs `make` as often as kSetupRepeats and kSetupMinSeconds ask,
/// recording each duration, and keeps the last result; the first
/// failure aborts. Each earlier result is destroyed before the next
/// set-up starts.
template <typename T>
Result<T> RepeatedSetup(Run* run, const std::function<Result<T>()>& make) {
  Result<T> last = Status::Internal("no set-up ran");
  double total_s = 0;
  for (int i = 0; i < kSetupRepeats || total_s < kSetupMinSeconds; ++i) {
    last = Status::Internal("set-up replaced");
    Tracer::Span span(&run->tracer, "bench.setup", i);
    auto t0 = Clock::now();
    last = make();
    if (!last.ok()) return last;
    run->setup_s.push_back(Seconds(t0, Clock::now()));
    total_s += run->setup_s.back();
  }
  return last;
}

/// A sharded:grepair corpus compressed from a generated graph.
struct ShardedCorpus {
  std::unique_ptr<api::CompressedRep> rep;  ///< the compressed ShardedRep
  std::vector<uint8_t> v2;                  ///< its GRSHARD2 bytes
  double compress_s = 0;

  const shard::ShardedRep& sharded() const {
    return static_cast<const shard::ShardedRep&>(*rep);
  }
};

/// Compresses `gg` as sharded:grepair with kShards shards on `threads`
/// threads and serializes the GRSHARD2 container.
Result<ShardedCorpus> CompressCorpus(const GeneratedGraph& gg, int threads);

/// The corpus both read workloads serve: a dblp-like version graph, its
/// adjacency model and its compressed container (the bytes only:
/// corpus.rep is released).
struct ReadCorpus {
  GeneratedGraph gg;
  std::unique_ptr<AdjacencyModel> model;
  ShardedCorpus corpus;
};

Result<ReadCorpus> MakeReadCorpus(int threads);

/// Writes `v2` as a backend-tagged container file at `path`.
Status WriteContainer(const std::string& path, const std::vector<uint8_t>& v2);

/// Opens a container file (lazy mmap) as a ShardedRep.
Result<std::unique_ptr<shard::ShardedRep>> OpenShardedFile(
    const std::string& path);

/// Traced runs only: splits one compress of `gg` into its layer calls
/// (PartitionGraph, then per shard ComputeNodeOrder, grepair Compress,
/// EncodeGrammar, DecodeGrammar) with the inner codec's options, checks
/// each shard's grammar bytes against the payloads of `container` (the
/// sharded compress of `gg`), and sets the grepair.*, encoding.*,
/// shard.partition_s / cut_edges / parallel_efficiency metrics.
/// `compress_wall_s` is the sharded compress's own wall time on `gg`.
void SplitCompress(const GeneratedGraph& gg,
                   const shard::ShardedRep& container, double compress_wall_s,
                   Run* run);

/// Traced runs only: times inline shard faults (Prefetch({i}) on reps
/// from `open`, which must not start a prefetch pool), and per shard of
/// `resident` the payload checksum (HashBytes) and the inner
/// DeserializeSpan. Sets shard.fault_us.*, shard.verify_s and
/// shard.inner_decode_us.p50.
void ProbeShards(
    const std::function<Result<std::unique_ptr<api::CompressedRep>>()>& open,
    const shard::ShardedRep& resident, Run* run);

/// `count` point queries on the next nodes of the cyclic stream `keys`
/// (position `*cursor` onward; OutNeighbors at even positions,
/// InNeighbors at odd), each timed as one operation with its latency
/// added to `out_us` or `in_us`. The answers are then checked against
/// `model` as harness work. Returns the first query's latency in µs.
double PointQueries(Run* run, const api::CompressedRep& rep,
                    const AdjacencyModel& model,
                    const std::vector<uint32_t>& keys, size_t count,
                    size_t* cursor, LatencySampler* out_us,
                    LatencySampler* in_us, uint64_t request);

/// Copies the query-layer counters of `stats` into query.*.
void ReportQueryStats(const api::QueryStats& stats, Run* run);

Status RunBuildDblp(Run* run);
Status RunReadHotLocal(Run* run);
Status RunReadColdRemote(Run* run);
Status RunMutateRdf(Run* run);

}  // namespace e2e
}  // namespace grepair

#endif  // GREPAIR_E2EBENCH_WORKLOADS_H_
