// Pieces shared by the benchmark's workloads: arguments, the query mix,
// the answer check against a baseline engine, store set-up, the traced
// query pipeline and its per-layer counters.

#ifndef NOKBENCH_WORKLOAD_COMMON_H_
#define NOKBENCH_WORKLOAD_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <sched.h>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>

#include "common/result.h"
#include "common/status.h"
#include "datagen/dataset_gen.h"
#include "encoding/dewey.h"
#include "encoding/document_store.h"
#include "nok/planner.h"
#include "report.h"
#include "storage/buffer_pool.h"
#include "xml/dom.h"

namespace nok {
class NavigationalEngine;
}  // namespace nok

namespace nokbench {

using nok::DeweyId;
using nok::DocumentStore;
using nok::Result;
using nok::Status;

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line arguments (see main.cc for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Every store directory of the run lives below this directory.
  std::string work_dir;
  /// Tiny documents and short phases, for the benchmark's own tests.
  bool smoke = false;
};

/// The benchmark's queries: the 12 Table-2 categories instantiated on the
/// generated document, then every variant of each with one '/' step
/// turned into '//' (all of them, so the mix's cost does not hinge on
/// which step a seed picks).
using QueryMix = std::vector<std::string>;
QueryMix MakeQueryMix(const nok::GeneratedDataset& ds);

/// Answers queries on a DomTree with the navigational baseline engine —
/// an implementation independent of the NoK store and executor.  Build a
/// new oracle after editing the tree: the engine indexes it once.
class BaselineOracle {
 public:
  explicit BaselineOracle(const nok::DomTree* dom);
  ~BaselineOracle();
  BaselineOracle(const BaselineOracle&) = delete;
  BaselineOracle& operator=(const BaselineOracle&) = delete;

  Result<std::vector<DeweyId>> Answer(const std::string& xpath);

 private:
  std::unique_ptr<nok::NavigationalEngine> engine_;
};

/// Wall-clock times of one store set-up.
struct SetupTimes {
  double build_s = 0;
  double flush_s = 0;
  double open_s = 0;
  double total() const { return build_s + flush_s + open_s; }
};

/// Builds `xml` into `dir` (Build + Flush) and closes the writer.  The
/// caller opens the directory the way its workload serves it.  `times`
/// may be null.
Status BuildStoreDir(const std::string& xml, const std::string& dir,
                     const nok::DocumentStoreOptions& base,
                     SetupTimes* times);

/// Bytes of the store's files below dir.  The write-ahead log is left
/// out: it is transient (truncated after a checkpoint once it passes
/// 1 MB), so its size says where in that cycle the run stopped, not how
/// much the store holds.
uint64_t StoreBytes(const std::string& dir);
/// Copies a store directory (for repeated reopen measurements).
Status CopyDir(const std::string& from, const std::string& to);
/// Removes a directory tree (ignores a missing one).
void RemoveDir(const std::string& dir);

/// Process resident set size in MiB (VmRSS), after returning free heap
/// pages to the system.
double RssMb();

/// Percentile by nearest rank (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Pins the calling thread to each CPU it may use, in turn, so that the
/// timings of a single-threaded loop sample every core instead of
/// whichever one the scheduler picked (on a shared machine one core can
/// run slower than the others for seconds).  The destructor restores the
/// thread's CPU mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves the calling thread to the next CPU.
  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Runs `op` `times` times under a CpuRotation, pausing briefly between
/// runs so the samples also span more than one instant.  Stops at the
/// first error.
Status ForEachCpu(int times, const std::function<Status()>& op);

/// Per-layer counters of one store's components, read before and after
/// a traced call.
struct PoolCounters {
  nok::BufferPool::Stats tree, tag, value, id, path;
};
PoolCounters ReadPools(DocumentStore* store);
/// Adds after - before, pool by pool, to *sum.
void Accumulate(PoolCounters* sum, const PoolCounters& after,
                const PoolCounters& before);

/// What the traced run gathers over the queries it evaluates.
struct QueryLayerTrace {
  uint64_t queries = 0;
  uint64_t results = 0;
  uint64_t candidates = 0;
  uint64_t stale_queries = 0;  ///< Run while positions were not fresh.
  double parse_s = 0, plan_s = 0, exec_s = 0;
  struct Op {
    double seconds = 0;
    uint64_t rows_out = 0;
  };
  std::map<std::string, Op> ops;
  std::vector<double> est_errors;  ///< |est/actual - 1| per trace row.
  nok::StringStore::NavStats nav;
  PoolCounters pools;
};

/// Evaluates one query the way QueryEngine::EvaluatePattern does, but
/// calling each layer's public entry point itself so every layer can be
/// timed: ParseXPath; PartitionPattern + ResolvePatternTags +
/// Planner::Plan; Executor::Run.  Adds the store's counter deltas to
/// `trace`.  Single-threaded use only: the counters are store-wide.
Result<std::vector<DeweyId>> TracedEvaluate(DocumentStore* store,
                                            const std::string& xpath,
                                            QueryLayerTrace* trace);

/// Adds the nok / encoding-navigation / storage-pool / btree-read
/// metrics derived from `trace` to the report.
void EmitQueryLayerMetrics(const QueryLayerTrace& trace, Report* report);

/// What the traced run gathers on the write path (update_read).
struct UpdateLayerTrace {
  std::vector<double> insert_s, delete_s, commit_s, pin_s;
  uint64_t update_ops = 0;
  uint64_t commits = 0;
  nok::WalWriter::Stats wal;   ///< Summed over the traced commits.
  PoolCounters update_pools;   ///< Writer's pools during update ops.
  PoolCounters commit_pools;   ///< Writer's pools during commits.
  uint64_t retained_bytes = 0; ///< Largest SwmrStore retention seen.
};

/// Adds the write-path metrics; a read workload passes an empty trace
/// and reports zeros.
void EmitUpdateLayerMetrics(const UpdateLayerTrace& trace, Report* report);

/// Set-up and reopen timings of the run (one sample per repetition).
struct SetupLayerTimes {
  std::vector<double> build_s, flush_s, open_s, reopen_s;
  bool bp_from_sidecar = false;        ///< As of the last reopen.
  bool synopsis_from_sidecar = false;  ///< As of the last reopen.
};
void EmitSetupLayerMetrics(const SetupLayerTimes& times, Report* report);

/// The executor operators reported one by one.
const std::vector<std::string>& ReportedOperators();

/// Workload entry points (read_workload.cc, update_workload.cc): each
/// fills `report`, or returns the error that stops the run.
Status RunReadWorkload(const Args& args, nok::NavMode nav_mode,
                       Report* report);
Status RunUpdateWorkload(const Args& args, Report* report);

}  // namespace nokbench

#endif  // NOKBENCH_WORKLOAD_COMMON_H_
