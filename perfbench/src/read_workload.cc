// read_paged / read_bp: one read-only dblp store, N client threads in a
// closed loop over the query mix, every answer checked.

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/mutex.h"
#include "nok/query_engine.h"
#include "workload_common.h"
#include "xml/dom.h"

namespace nokbench {

namespace {

/// Reopens timed per run (the median is reported; one open is well
/// under a millisecond on the paged tier).
constexpr int kReopens = 32;

/// Hands out positions in the cyclic query sequence.  Once the deadline
/// has passed, it stops at the end of the current pass, so every run
/// executes whole passes of the mix and its query composition is fixed.
class Dispatcher {
 public:
  Dispatcher(size_t mix_size, Clock::time_point deadline, uint64_t passes)
      : mix_size_(mix_size), deadline_(deadline) {
    if (passes > 0) limit_ = passes * mix_size;
  }

  bool Next(uint64_t* index) {
    nok::MutexLock lock(&mu_);
    if (limit_ == kUnbounded && Clock::now() >= deadline_) {
      limit_ = (next_ + mix_size_ - 1) / mix_size_ * mix_size_;
    }
    if (next_ >= limit_) return false;
    *index = next_++;
    return true;
  }

 private:
  static constexpr uint64_t kUnbounded = ~uint64_t{0};
  const uint64_t mix_size_;
  const Clock::time_point deadline_;
  nok::Mutex mu_;
  uint64_t next_ GUARDED_BY(mu_) = 0;
  uint64_t limit_ GUARDED_BY(mu_) = kUnbounded;
};

struct LoopResult {
  std::vector<double> latencies;  // seconds
  /// Per pass of the mix: queries x clients / summed query latency —
  /// the closed loop's throughput while that pass ran.
  std::vector<double> pass_qps;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
};

/// Closed loop: `threads` clients, each with its own QueryEngine, run
/// the mix until `seconds` have passed (then finish the pass), or for
/// exactly `passes` passes when passes > 0.  Answers are compared with
/// `expected` outside the timed region.
LoopResult RunClosedLoop(DocumentStore* store, const QueryMix& mix,
                         const std::vector<std::vector<DeweyId>>& expected,
                         int threads, double seconds, uint64_t passes) {
  const auto start = Clock::now();
  Dispatcher dispatcher(
      mix.size(),
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)),
      passes);
  std::vector<LoopResult> per_thread(static_cast<size_t>(threads));
  std::vector<std::vector<std::pair<uint64_t, double>>> timed(
      static_cast<size_t>(threads));  // (sequence index, latency)
  {
    std::vector<std::thread> clients;
    for (int t = 0; t < threads; ++t) {
      clients.emplace_back([&, t]() {
        LoopResult& mine = per_thread[static_cast<size_t>(t)];
        auto& my_timed = timed[static_cast<size_t>(t)];
        nok::QueryEngine engine(store);
        uint64_t index = 0;
        while (dispatcher.Next(&index)) {
          const size_t q = static_cast<size_t>(index % mix.size());
          const auto query_start = Clock::now();
          auto result = engine.Evaluate(mix[q]);
          const double took = Since(query_start);
          mine.latencies.push_back(took);
          my_timed.emplace_back(index, took);
          ++mine.attempted;
          if (!result.ok() || *result != expected[q]) ++mine.failed;
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }
  LoopResult all;
  all.wall_s = Since(start);
  for (LoopResult& r : per_thread) {
    all.latencies.insert(all.latencies.end(), r.latencies.begin(),
                         r.latencies.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
  }
  std::vector<double> pass_busy(all.attempted / mix.size(), 0.0);
  for (const auto& thread_timed : timed) {
    for (const auto& [index, took] : thread_timed) {
      pass_busy[index / mix.size()] += took;
    }
  }
  for (double busy : pass_busy) {
    all.pass_qps.push_back(static_cast<double>(mix.size() * threads) / busy);
  }
  return all;
}

/// How a read-only store is served to concurrent clients: sharded pools,
/// as `nokq bench` and bench_concurrency open it.  (With one shard, four
/// clients convoy on the shard mutex and reach a fifth of one client's
/// throughput.)
nok::DocumentStoreOptions ServingOptions(nok::NavMode nav_mode) {
  nok::DocumentStoreOptions options;
  options.nav_mode = nav_mode;
  options.pool_shards = 16;
  options.index_pool_shards = 8;
  return options;
}

Result<std::unique_ptr<DocumentStore>> OpenReadOnly(
    const std::string& dir, nok::NavMode nav_mode) {
  nok::DocumentStoreOptions options = ServingOptions(nav_mode);
  options.dir = dir;
  options.read_only = true;
  return DocumentStore::OpenDir(options);
}

}  // namespace

Status RunReadWorkload(const Args& args, nok::NavMode nav_mode,
                       Report* report) {
  nok::GenOptions gen;
  gen.scale = args.smoke ? 0.002 : 0.05;
  gen.seed = args.seed;
  const nok::GeneratedDataset ds =
      nok::GenerateDataset(nok::Dataset::kDblp, gen);
  const QueryMix mix = MakeQueryMix(ds);
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const int setups = args.smoke ? 1 : 3;
  report->SetEnv("dataset", "dblp");
  report->SetEnv("scale", gen.scale);
  report->SetEnv("xml_bytes", static_cast<double>(ds.xml.size()));
  report->SetEnv("queries_in_mix", static_cast<double>(mix.size()));
  report->SetEnv("nav_mode", nok::NavModeName(nav_mode));
  report->SetEnv("pool_shards", "tree 16, each B+ tree 8");
  report->SetEnv("client_threads", args.trace ? 1.0 : threads);
  report->SetEnv("setup_repeats", setups);

  // Set-up: Build + Flush + read-only OpenDir, repeated; the last store
  // opened is the one served.
  const std::string dir = args.work_dir + "/store";
  const nok::DocumentStoreOptions build_options = ServingOptions(nav_mode);
  std::vector<double> setup_s;
  SetupLayerTimes layers;
  std::unique_ptr<DocumentStore> store;
  NOK_RETURN_IF_ERROR(ForEachCpu(setups, [&]() -> Status {
    store.reset();
    SetupTimes times;
    NOK_RETURN_IF_ERROR(BuildStoreDir(ds.xml, dir, build_options, &times));
    const auto open_start = Clock::now();
    NOK_ASSIGN_OR_RETURN(store, OpenReadOnly(dir, nav_mode));
    times.open_s = Since(open_start);
    setup_s.push_back(times.total());
    layers.build_s.push_back(times.build_s);
    layers.flush_s.push_back(times.flush_s);
    layers.open_s.push_back(times.open_s);
    return Status::OK();
  }));
  report->SetEnv("nodes", static_cast<double>(store->stats().node_count));

  // Expected answers from the baseline engine (outside every timing; the
  // tree is freed before measuring so rss_mb counts the store, not it).
  std::vector<std::vector<DeweyId>> expected;
  {
    NOK_ASSIGN_OR_RETURN(nok::DomTree dom, nok::DomTree::Parse(ds.xml));
    BaselineOracle oracle(&dom);
    for (const std::string& xpath : mix) {
      NOK_ASSIGN_OR_RETURN(auto answer, oracle.Answer(xpath));
      expected.push_back(std::move(answer));
    }
  }

  if (!args.trace) {
    // One single-threaded warm-up pass fills the pools; then the memory
    // reading and the measured closed loop.
    const LoopResult warm = RunClosedLoop(store.get(), mix, expected, 1, 0, 1);
    const double rss_mb = RssMb();
    const LoopResult run =
        RunClosedLoop(store.get(), mix, expected, threads, args.seconds, 0);
    report->Count(warm.attempted, warm.failed);
    report->Count(run.attempted, run.failed);
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("query_qps", Median(run.pass_qps), "1/s");
    report->Add("query_p50_ms", Percentile(run.latencies, 0.5) * 1e3, "ms");
    report->Add("query_p99_ms", Percentile(run.latencies, 0.99) * 1e3, "ms");
    report->Add("store_bytes_per_xml_byte",
                static_cast<double>(StoreBytes(dir)) /
                    static_cast<double>(ds.xml.size()),
                "ratio");
    report->Add("rss_mb", rss_mb, "MiB");
    report->SetEnv("query_samples", static_cast<double>(run.attempted));
    report->SetEnv("measured_s", run.wall_s);
    report->SetEnv("passes", static_cast<double>(run.pass_qps.size()));
    return Status::OK();
  }

  // Traced run, single-threaded (the counters are store-wide): a fixed
  // amount of work on the freshly opened store, so every count repeats
  // exactly.  The same passes untraced give the tracing overhead.
  const uint64_t passes = nav_mode == nok::NavMode::kBp ? 1 : 4;
  QueryLayerTrace trace;
  nok::QueryEngine engine(store.get());
  for (size_t q = 0; q < mix.size(); ++q) {  // warm-up pass
    auto result = engine.Evaluate(mix[q]);
    report->Count(result.ok() && *result == expected[q]);
  }
  const auto traced_start = Clock::now();
  for (uint64_t p = 0; p < passes; ++p) {
    for (size_t q = 0; q < mix.size(); ++q) {
      auto result = TracedEvaluate(store.get(), mix[q], &trace);
      report->Count(result.ok() && *result == expected[q]);
    }
  }
  const double traced_s = Since(traced_start);
  const auto untraced_start = Clock::now();
  for (uint64_t p = 0; p < passes; ++p) {
    for (size_t q = 0; q < mix.size(); ++q) {
      auto result = engine.Evaluate(mix[q]);
      report->Count(result.ok() && *result == expected[q]);
    }
  }
  const double untraced_s = Since(untraced_start);
  const double n = static_cast<double>(passes * mix.size());
  report->Add("trace.traced_qps", n / traced_s, "1/s");
  report->Add("trace.untraced_qps", n / untraced_s, "1/s");
  report->Add("trace.overhead_qps", n / traced_s - n / untraced_s, "1/s");
  EmitQueryLayerMetrics(trace, report);
  EmitUpdateLayerMetrics(UpdateLayerTrace{}, report);

  // Reopen of the served directory (sidecars included).
  store.reset();
  NOK_RETURN_IF_ERROR(ForEachCpu(args.smoke ? 1 : kReopens, [&]() -> Status {
    const auto start = Clock::now();
    NOK_ASSIGN_OR_RETURN(auto reopened, OpenReadOnly(dir, nav_mode));
    layers.reopen_s.push_back(Since(start));
    layers.bp_from_sidecar = reopened->bp_loaded_from_sidecar();
    layers.synopsis_from_sidecar = reopened->synopsis_loaded_from_sidecar();
    return Status::OK();
  }));
  EmitSetupLayerMetrics(layers, report);
  return Status::OK();
}

}  // namespace nokbench
