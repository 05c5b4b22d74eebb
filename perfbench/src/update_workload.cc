// update_read: a small dblp store served through SwmrStore (WAL on).  One
// client runs a closed loop of {apply one update batch, Commit, pin the
// new snapshot, run a slice of the Table-2 mix on it}.  The same edits
// are applied to a DomTree, and every answer is checked against the
// baseline engine over that tree.

#include <chrono>
#include <memory>
#include <string>

#include "common/random.h"
#include "encoding/swmr_store.h"
#include "nok/query_engine.h"
#include "workload_common.h"
#include "xml/dom.h"
#include "xml/serializer.h"

namespace nokbench {

namespace {

std::unique_ptr<nok::DomNode> Clone(const nok::DomNode& node) {
  auto copy = std::make_unique<nok::DomNode>();
  copy->name = node.name;
  copy->value = node.value;
  for (const auto& child : node.children) {
    copy->children.push_back(Clone(*child));
  }
  return copy;
}

// One batch: kNestedInserts child inserts under random entries,
// kAppends new entries at the root's end, and one delete of a whole
// entry at a random position, which shifts every later sibling's Dewey
// ID.  Inserts and deletes balance, so the document keeps its size.
constexpr int kNestedInserts = 2;
constexpr int kAppends = 1;
/// Queries run on each new snapshot; they cycle through the mix.
constexpr size_t kQueriesPerBatch = 12;

/// The seeded update stream plus the DOM mirror it keeps in step with
/// the store.
class UpdateStream {
 public:
  UpdateStream(uint64_t seed, nok::DomTree* dom)
      : rng_(seed * 0x9e3779b97f4a7c15ull + 11), dom_(dom) {}

  /// Applies batch number `batch` to the store (each op timed into
  /// `layers` when non-null) and to the DOM mirror.
  Status Apply(uint64_t batch, nok::SwmrStore* swmr,
               UpdateLayerTrace* layers) {
    nok::DomNode* root = dom_->mutable_root();
    for (int i = 0; i < kNestedInserts; ++i) {
      const uint32_t entry = Pick(root->children.size());
      nok::DomNode* parent = root->children[entry].get();
      const uint32_t first = FirstElementChild(*parent);
      const uint32_t at =
          first + Pick(parent->children.size() - first + 1);
      const std::string fragment =
          i % 2 == 0 ? "<author><name>U" + std::to_string(batch) +
                           " Writer</name></author>"
                     : "<cite>u" + std::to_string(batch) + "</cite>";
      NOK_RETURN_IF_ERROR(Timed(layers, &UpdateLayerTrace::insert_s, swmr,
                                [&]() {
                                  return swmr->InsertSubtree(
                                      DeweyId({0, entry}), at, fragment);
                                }));
      NOK_RETURN_IF_ERROR(MirrorInsert(parent, at, fragment));
    }
    for (int i = 0; i < kAppends; ++i) {
      const uint32_t at = static_cast<uint32_t>(root->children.size());
      const std::string fragment =
          "<article key=\"u" + std::to_string(batch) +
          "\"><author><name>Ann Update</name></author><title>Appended " +
          std::to_string(batch) + "</title><year>2004</year></article>";
      NOK_RETURN_IF_ERROR(Timed(layers, &UpdateLayerTrace::insert_s, swmr,
                                [&]() {
                                  return swmr->InsertSubtree(
                                      DeweyId::Root(), at, fragment);
                                }));
      NOK_RETURN_IF_ERROR(MirrorInsert(root, at, fragment));
    }
    if (root->children.size() > 1) {
      const uint32_t entry = Pick(root->children.size());
      NOK_RETURN_IF_ERROR(Timed(layers, &UpdateLayerTrace::delete_s, swmr,
                                [&]() {
                                  return swmr->DeleteSubtree(
                                      DeweyId({0, entry}));
                                }));
      root->children.erase(root->children.begin() + entry);
    }
    dom_->Renumber();
    return Status::OK();
  }

  /// Seconds spent inside the store's update calls so far.
  double store_seconds() const { return store_s_; }

 private:
  uint32_t Pick(size_t n) { return static_cast<uint32_t>(rng_.Uniform(n)); }

  static uint32_t FirstElementChild(const nok::DomNode& node) {
    uint32_t i = 0;
    while (i < node.children.size() && node.children[i]->is_attribute()) ++i;
    return i;
  }

  /// Runs one update op and adds its time to store_s_; when tracing,
  /// also records the latency into layers->*samples and the writer's
  /// B+ tree pool traffic.
  template <typename Op>
  Status Timed(UpdateLayerTrace* layers,
               std::vector<double> UpdateLayerTrace::*samples,
               nok::SwmrStore* swmr, Op op) {
    PoolCounters before;
    if (layers != nullptr) before = ReadPools(swmr->writer());
    const auto start = Clock::now();
    Status s = op();
    const double took = Since(start);
    store_s_ += took;
    if (layers != nullptr) {
      (layers->*samples).push_back(took);
      Accumulate(&layers->update_pools, ReadPools(swmr->writer()), before);
      ++layers->update_ops;
    }
    return s;
  }

  Status MirrorInsert(nok::DomNode* parent, uint32_t at,
                      const std::string& fragment) {
    NOK_ASSIGN_OR_RETURN(nok::DomTree piece, nok::DomTree::Parse(fragment));
    parent->children.insert(parent->children.begin() + at,
                            Clone(*piece.root()));
    return Status::OK();
  }

  nok::Random rng_;
  nok::DomTree* dom_;
  double store_s_ = 0;
};

/// One served store with its update stream and DOM mirror.
struct Session {
  std::unique_ptr<nok::SwmrStore> swmr;
  std::unique_ptr<nok::DomTree> dom;
  std::unique_ptr<UpdateStream> stream;
};

Result<Session> OpenSession(const nok::GeneratedDataset& ds,
                            const std::string& dir, uint64_t seed) {
  Session session;
  NOK_ASSIGN_OR_RETURN(session.swmr, nok::SwmrStore::Open(dir));
  NOK_ASSIGN_OR_RETURN(nok::DomTree dom, nok::DomTree::Parse(ds.xml));
  session.dom = std::make_unique<nok::DomTree>(std::move(dom));
  session.stream =
      std::make_unique<UpdateStream>(seed, session.dom.get());
  return session;
}

/// Batches per round.  Every round starts from a copy of the freshly
/// built store, so the document never drifts with the run's length.
/// Round r applies the update stream seeded by (seed, r): a run samples
/// several streams, and a metric's median over rounds depends little on
/// which delete positions one stream happened to draw.
constexpr uint64_t kRoundBatches = 32;

uint64_t StreamSeed(uint64_t seed, uint64_t round) {
  return seed * 1000003 + round;
}

struct LoopResult {
  std::vector<double> latencies;  // seconds, per query
  std::vector<double> round_qps;    // queries / busy time, per round
  std::vector<double> round_p50_s;  // per-round latency percentiles
  std::vector<double> round_p99_s;
  std::vector<double> store_ratio;  // store bytes / XML bytes, per round
  double query_s = 0;               // time spent evaluating queries
  uint64_t batches = 0;
  uint64_t queries = 0;
  double rss_mb = 0;  // at the end of the last round
};

/// One round: kRoundBatches batches of the stream seeded by
/// `stream_seed`, on a fresh copy of `pristine`.  With
/// `layers`/`query_layers` set, every call is traced.
Status RunRound(const nok::GeneratedDataset& ds, const std::string& pristine,
                const std::string& live, uint64_t stream_seed,
                const QueryMix& mix, UpdateLayerTrace* layers,
                QueryLayerTrace* query_layers, Report* report,
                LoopResult* out) {
  NOK_RETURN_IF_ERROR(CopyDir(pristine, live));
  NOK_ASSIGN_OR_RETURN(Session session,
                       OpenSession(ds, live, stream_seed));
  nok::SwmrStore* swmr = session.swmr.get();
  std::shared_ptr<nok::SwmrStore::Snapshot> pinned = swmr->snapshot();
  CpuRotation rotation;
  double round_query_s = 0;
  double round_commit_s = 0;  // Commit + snapshot pin
  std::vector<double> round_latencies;
  size_t next_query = 0;
  for (uint64_t b = 0; b < kRoundBatches; ++b) {
    rotation.Next();
    NOK_RETURN_IF_ERROR(session.stream->Apply(b, swmr, layers));
    PoolCounters before;
    nok::WalWriter::Stats wal_before;
    if (layers != nullptr) {
      before = ReadPools(swmr->writer());
      wal_before = swmr->writer()->wal_stats();
    }
    const auto commit_start = Clock::now();
    NOK_RETURN_IF_ERROR(swmr->Commit());
    const double commit_took = Since(commit_start);
    round_commit_s += commit_took;
    if (layers != nullptr) {
      layers->commit_s.push_back(commit_took);
      const auto wal_after = swmr->writer()->wal_stats();
      Accumulate(&layers->commit_pools, ReadPools(swmr->writer()), before);
      layers->wal.bytes_logged +=
          wal_after.bytes_logged - wal_before.bytes_logged;
      layers->wal.records_logged +=
          wal_after.records_logged - wal_before.records_logged;
      layers->wal.wal_syncs += wal_after.wal_syncs - wal_before.wal_syncs;
      ++layers->commits;
      // The previous snapshot is still pinned: this is the retention a
      // reader that lags one commit costs.
      layers->retained_bytes =
          std::max(layers->retained_bytes, swmr->stats().retained_bytes);
    }
    const auto pin_start = Clock::now();
    pinned = swmr->snapshot();
    const double pin_took = Since(pin_start);
    round_commit_s += pin_took;
    if (layers != nullptr) layers->pin_s.push_back(pin_took);

    // The slice's expected answers come from the mirrored DOM.
    BaselineOracle oracle(session.dom.get());
    nok::QueryEngine engine(pinned->store());
    for (size_t i = 0; i < kQueriesPerBatch; ++i) {
      const std::string& xpath = mix[next_query];
      next_query = (next_query + 1) % mix.size();
      const auto query_start = Clock::now();
      auto result = query_layers != nullptr
                        ? TracedEvaluate(pinned->store(), xpath, query_layers)
                        : engine.Evaluate(xpath);
      const double took = Since(query_start);
      out->latencies.push_back(took);
      round_latencies.push_back(took);
      round_query_s += took;
      ++out->queries;
      auto expected = oracle.Answer(xpath);
      report->Count(result.ok() && expected.ok() && *result == *expected);
    }
    ++out->batches;
  }
  // The client's busy time: store updates, commits, pins and queries; the
  // answer check and the DOM mirror are the benchmark's own work.
  out->query_s += round_query_s;
  out->round_qps.push_back(
      static_cast<double>(kRoundBatches * kQueriesPerBatch) /
      (session.stream->store_seconds() + round_commit_s + round_query_s));
  out->round_p50_s.push_back(Percentile(round_latencies, 0.5));
  out->round_p99_s.push_back(Percentile(round_latencies, 0.99));
  out->rss_mb = RssMb();
  const std::string current_xml = nok::SerializeTree(*session.dom);
  pinned.reset();
  session = Session{};
  out->store_ratio.push_back(static_cast<double>(StoreBytes(live)) /
                             static_cast<double>(current_xml.size()));
  return Status::OK();
}

}  // namespace

Status RunUpdateWorkload(const Args& args, Report* report) {
  nok::GenOptions gen;
  gen.scale = args.smoke ? 0.0002 : 0.0005;
  gen.seed = args.seed;
  const nok::GeneratedDataset ds =
      nok::GenerateDataset(nok::Dataset::kDblp, gen);
  const QueryMix mix = MakeQueryMix(ds);
  const int setups = args.smoke ? 1 : 15;  // ~15 ms each
  const uint64_t traced_rounds = args.smoke ? 1 : 4;
  report->SetEnv("dataset", "dblp");
  report->SetEnv("scale", gen.scale);
  report->SetEnv("xml_bytes", static_cast<double>(ds.xml.size()));
  report->SetEnv("queries_in_mix", static_cast<double>(mix.size()));
  report->SetEnv("nav_mode", "paged");
  report->SetEnv("client_threads", 1);
  report->SetEnv("setup_repeats", setups);
  report->SetEnv("round",
                 std::to_string(kRoundBatches) + " batches of " +
                     std::to_string(kNestedInserts) + " nested inserts + " +
                     std::to_string(kAppends) + " append + 1 delete, " +
                     std::to_string(kQueriesPerBatch) +
                     " queries after each commit");

  // Set-up: Build + Flush + SwmrStore::Open, repeated.  The built
  // directory is kept pristine; every round works on a copy.
  const std::string pristine = args.work_dir + "/pristine";
  const std::string live = args.work_dir + "/store";
  std::vector<double> setup_s;
  SetupLayerTimes setup_layers;
  NOK_RETURN_IF_ERROR(ForEachCpu(setups, [&]() -> Status {
    SetupTimes times;
    NOK_RETURN_IF_ERROR(BuildStoreDir(ds.xml, live, {}, &times));
    const auto open_start = Clock::now();
    NOK_ASSIGN_OR_RETURN(auto swmr, nok::SwmrStore::Open(live));
    times.open_s = Since(open_start);
    setup_s.push_back(times.total());
    setup_layers.build_s.push_back(times.build_s);
    setup_layers.flush_s.push_back(times.flush_s);
    setup_layers.open_s.push_back(times.open_s);
    return Status::OK();
  }));
  NOK_RETURN_IF_ERROR(BuildStoreDir(ds.xml, pristine, {}, nullptr));

  if (!args.trace) {
    LoopResult run;
    const auto start = Clock::now();
    uint64_t round = 0;
    do {
      NOK_RETURN_IF_ERROR(RunRound(ds, pristine, live,
                                   StreamSeed(args.seed, round++), mix,
                                   nullptr, nullptr, report, &run));
    } while (Since(start) < args.seconds);
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("query_qps", Median(run.round_qps), "1/s");
    // Percentiles per round (384 queries each), then the median over
    // rounds: a stall of the machine during one round moves one sample.
    report->Add("query_p50_ms", Median(run.round_p50_s) * 1e3, "ms");
    report->Add("query_p99_ms", Median(run.round_p99_s) * 1e3, "ms");
    report->Add("store_bytes_per_xml_byte", Median(run.store_ratio),
                "ratio");
    report->Add("rss_mb", run.rss_mb, "MiB");
    report->SetEnv("rounds", static_cast<double>(run.round_qps.size()));
    report->SetEnv("commits", static_cast<double>(run.batches));
    report->SetEnv("query_samples", static_cast<double>(run.queries));
    return Status::OK();
  }

  // Traced run: a fixed number of rounds, every call timed and its
  // counters read; then the same rounds untraced, for the overhead.
  LoopResult traced, untraced;
  UpdateLayerTrace layers;
  QueryLayerTrace query_layers;
  for (uint64_t r = 0; r < traced_rounds; ++r) {
    NOK_RETURN_IF_ERROR(RunRound(ds, pristine, live,
                                 StreamSeed(args.seed, r), mix,
                                 &layers, &query_layers, report, &traced));
  }
  for (uint64_t r = 0; r < traced_rounds; ++r) {
    NOK_RETURN_IF_ERROR(RunRound(ds, pristine, live,
                                 StreamSeed(args.seed, r), mix,
                                 nullptr, nullptr, report, &untraced));
  }
  const double traced_qps =
      static_cast<double>(traced.queries) / traced.query_s;
  const double untraced_qps =
      static_cast<double>(untraced.queries) / untraced.query_s;
  report->Add("trace.traced_qps", traced_qps, "1/s");
  report->Add("trace.untraced_qps", untraced_qps, "1/s");
  report->Add("trace.overhead_qps", traced_qps - untraced_qps, "1/s");
  EmitQueryLayerMetrics(query_layers, report);
  EmitUpdateLayerMetrics(layers, report);

  // Reopen of the updated directory (WAL recovery scan + sidecars), each
  // time on a fresh copy so every open does the same work.
  const std::string copy = args.work_dir + "/reopen";
  NOK_RETURN_IF_ERROR(ForEachCpu(args.smoke ? 1 : 12, [&]() -> Status {
    NOK_RETURN_IF_ERROR(CopyDir(live, copy));
    nok::DocumentStoreOptions options;
    options.dir = copy;
    options.wal.enabled = true;
    const auto start = Clock::now();
    NOK_ASSIGN_OR_RETURN(auto reopened, DocumentStore::OpenDir(options));
    setup_layers.reopen_s.push_back(Since(start));
    setup_layers.bp_from_sidecar = reopened->bp_loaded_from_sidecar();
    setup_layers.synopsis_from_sidecar =
        reopened->synopsis_loaded_from_sidecar();
    return Status::OK();
  }));
  RemoveDir(copy);
  EmitSetupLayerMetrics(setup_layers, report);
  return Status::OK();
}

}  // namespace nokbench
