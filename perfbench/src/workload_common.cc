#include "workload_common.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>

#include "baseline/navigational_engine.h"
#include "datagen/query_gen.h"
#include "nok/executor.h"
#include "nok/nok_partition.h"
#include "nok/physical_matcher.h"
#include "nok/xpath_parser.h"
#include "storage/wal.h"

namespace nokbench {

namespace {

DeweyId DomDewey(const nok::DomNode* node) {
  std::vector<uint32_t> components;
  for (const nok::DomNode* n = node; n != nullptr; n = n->parent) {
    components.push_back(n->parent == nullptr ? 0 : n->child_index);
  }
  std::reverse(components.begin(), components.end());
  return DeweyId(std::move(components));
}

double PerQuery(double total, uint64_t queries) {
  return queries == 0 ? 0 : total / static_cast<double>(queries);
}

double HitRate(const nok::BufferPool::Stats& s) {
  return s.fetches == 0 ? 0
                        : static_cast<double>(s.hits) /
                              static_cast<double>(s.fetches);
}

/// Every variant of `xpath` with one '/' step (outside literals) turned
/// into '//'.
std::vector<std::string> AllDescendantVariants(const std::string& xpath) {
  std::vector<std::string> out;
  char quote = 0;  // Inside a literal while non-zero.
  for (size_t i = 0; i < xpath.size(); ++i) {
    const char c = xpath[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
    } else if (c == '"' || c == '\'') {
      quote = c;
    } else if (c == '/' && (i == 0 || xpath[i - 1] != '/') &&
               (i + 1 >= xpath.size() || xpath[i + 1] != '/')) {
      out.push_back(xpath.substr(0, i) + "/" + xpath.substr(i));
    }
  }
  return out;
}

}  // namespace

QueryMix MakeQueryMix(const nok::GeneratedDataset& ds) {
  QueryMix mix;
  const auto queries = nok::QueriesForDataset(ds);
  for (const auto& q : queries) mix.push_back(q.xpath);
  for (const auto& q : queries) {
    for (std::string& variant : AllDescendantVariants(q.xpath)) {
      mix.push_back(std::move(variant));
    }
  }
  return mix;
}

BaselineOracle::BaselineOracle(const nok::DomTree* dom)
    : engine_(std::make_unique<nok::NavigationalEngine>(dom)) {}

BaselineOracle::~BaselineOracle() = default;

Result<std::vector<DeweyId>> BaselineOracle::Answer(
    const std::string& xpath) {
  NOK_ASSIGN_OR_RETURN(auto pattern, nok::ParseXPath(xpath));
  NOK_ASSIGN_OR_RETURN(auto nodes, engine_->Evaluate(pattern));
  std::vector<DeweyId> out;
  out.reserve(nodes.size());
  for (const nok::DomNode* node : nodes) out.push_back(DomDewey(node));
  return out;
}

Status BuildStoreDir(const std::string& xml, const std::string& dir,
                     const nok::DocumentStoreOptions& base,
                     SetupTimes* times) {
  RemoveDir(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
  nok::DocumentStoreOptions options = base;
  options.dir = dir;
  options.read_only = false;
  const auto start = Clock::now();
  NOK_ASSIGN_OR_RETURN(auto store, DocumentStore::Build(xml, options));
  const double build_s = Since(start);
  const auto flush_start = Clock::now();
  NOK_RETURN_IF_ERROR(store->Flush());
  if (times != nullptr) {
    times->build_s = build_s;
    times->flush_s = Since(flush_start);
  }
  return Status::OK();
}

uint64_t StoreBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().filename() != nok::kWalFileName) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

Status CopyDir(const std::string& from, const std::string& to) {
  RemoveDir(to);
  std::error_code ec;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
  if (ec) return Status::IOError("copy " + from + ": " + ec.message());
  return Status::OK();
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

double RssMb() {
  // Hand freed heap pages back first, so the figure tracks live memory
  // rather than how the allocator's per-thread arenas happen to fragment.
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

Status ForEachCpu(int times, const std::function<Status()>& op) {
  CpuRotation rotation;
  for (int i = 0; i < times; ++i) {
    rotation.Next();
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    NOK_RETURN_IF_ERROR(op());
  }
  return Status::OK();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  return samples[std::min(rank, samples.size()) - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

PoolCounters ReadPools(DocumentStore* store) {
  PoolCounters c;
  c.tree = store->tree()->buffer_pool()->stats();
  c.tag = store->tag_index()->buffer_pool()->stats();
  c.value = store->value_index()->buffer_pool()->stats();
  c.id = store->id_index()->buffer_pool()->stats();
  c.path = store->path_index()->buffer_pool()->stats();
  return c;
}

void Accumulate(PoolCounters* sum, const PoolCounters& after,
                const PoolCounters& before) {
  auto add = [](nok::BufferPool::Stats* s, const nok::BufferPool::Stats& a,
                const nok::BufferPool::Stats& b) {
    s->fetches += a.fetches - b.fetches;
    s->hits += a.hits - b.hits;
    s->misses += a.misses - b.misses;
    s->disk_reads += a.disk_reads - b.disk_reads;
    s->disk_writes += a.disk_writes - b.disk_writes;
    s->evictions += a.evictions - b.evictions;
  };
  add(&sum->tree, after.tree, before.tree);
  add(&sum->tag, after.tag, before.tag);
  add(&sum->value, after.value, before.value);
  add(&sum->id, after.id, before.id);
  add(&sum->path, after.path, before.path);
}

const std::vector<std::string>& ReportedOperators() {
  static const std::vector<std::string> ops = {
      "AnchorScan",     "TagIndexProbe", "ValueIndexProbe",
      "PathIndexProbe", "SemiJoinFilter", "NokMatch",
      "StructuralSemiJoin"};
  return ops;
}

Result<std::vector<DeweyId>> TracedEvaluate(DocumentStore* store,
                                            const std::string& xpath,
                                            QueryLayerTrace* trace) {
  const nok::QueryOptions options;
  const auto nav_before = store->tree()->nav_stats();
  const PoolCounters pools_before = ReadPools(store);
  if (!store->positions_fresh()) ++trace->stale_queries;

  const auto parse_start = Clock::now();
  NOK_ASSIGN_OR_RETURN(auto pattern, nok::ParseXPath(xpath));
  trace->parse_s += Since(parse_start);
  if (nok::HasPositionalPredicate(pattern)) {
    return Status::NotSupported("positional predicate in the query mix");
  }

  const auto plan_start = Clock::now();
  const nok::NokPartition partition = nok::PartitionPattern(pattern);
  const std::vector<nok::TagId> tag_table =
      nok::ResolvePatternTags(pattern, *store->tags());
  nok::Planner planner(store);
  NOK_ASSIGN_OR_RETURN(nok::QueryPlan plan,
                       planner.Plan(partition, tag_table, options));
  trace->plan_s += Since(plan_start);

  nok::QueryStats stats;
  nok::ExecutionTrace exec_trace;
  nok::Executor executor(store);
  const auto exec_start = Clock::now();
  NOK_ASSIGN_OR_RETURN(
      std::vector<DeweyId> out,
      executor.Run(plan, partition, tag_table, options, &stats,
                   &exec_trace));
  trace->exec_s += Since(exec_start);

  ++trace->queries;
  trace->results += out.size();
  for (const auto& tree : stats.trees) trace->candidates += tree.candidates;
  for (const nok::OperatorStats& op : exec_trace.operators) {
    QueryLayerTrace::Op& agg = trace->ops[op.op];
    agg.seconds += op.seconds;
    agg.rows_out += op.rows_out;
    if (op.has_estimate) {
      const double actual = static_cast<double>(op.rows_out);
      trace->est_errors.push_back(
          std::fabs(static_cast<double>(op.estimated) - actual) /
          std::max(actual, 1.0));
    }
  }

  const auto nav_after = store->tree()->nav_stats();
  trace->nav.pages_scanned += nav_after.pages_scanned - nav_before.pages_scanned;
  trace->nav.pages_skipped += nav_after.pages_skipped - nav_before.pages_skipped;
  trace->nav.pages_skipped_by_tag +=
      nav_after.pages_skipped_by_tag - nav_before.pages_skipped_by_tag;
  trace->nav.decode_cache_hits +=
      nav_after.decode_cache_hits - nav_before.decode_cache_hits;
  trace->nav.bp_steps += nav_after.bp_steps - nav_before.bp_steps;
  trace->nav.bp_tag_blocks_skipped +=
      nav_after.bp_tag_blocks_skipped - nav_before.bp_tag_blocks_skipped;
  Accumulate(&trace->pools, ReadPools(store), pools_before);
  return out;
}

void EmitQueryLayerMetrics(const QueryLayerTrace& t, Report* report) {
  const uint64_t q = t.queries;
  // nok
  report->Add("nok.parse_us", PerQuery(t.parse_s * 1e6, q), "us");
  report->Add("nok.plan_us", PerQuery(t.plan_s * 1e6, q), "us");
  report->Add("nok.exec_us", PerQuery(t.exec_s * 1e6, q), "us");
  report->Add("nok.plan_est_error", Median(t.est_errors), "ratio");
  report->Add("nok.candidates_per_result",
              t.results == 0 ? 0
                             : static_cast<double>(t.candidates) /
                                   static_cast<double>(t.results),
              "ratio");
  for (const std::string& name : ReportedOperators()) {
    const auto it = t.ops.find(name);
    const QueryLayerTrace::Op op =
        it == t.ops.end() ? QueryLayerTrace::Op{} : it->second;
    report->Add("nok.op." + name + "_us", PerQuery(op.seconds * 1e6, q),
                "us");
    report->Add("nok.op." + name + "_rows_out",
                PerQuery(static_cast<double>(op.rows_out), q), "rows");
  }
  // encoding: navigation tiers
  auto per_query = [&](uint64_t v) {
    return PerQuery(static_cast<double>(v), q);
  };
  report->Add("encoding.pages_scanned_per_query",
              per_query(t.nav.pages_scanned), "pages");
  report->Add("encoding.pages_skipped_per_query",
              per_query(t.nav.pages_skipped), "pages");
  report->Add("encoding.pages_skipped_by_tag_per_query",
              per_query(t.nav.pages_skipped_by_tag), "pages");
  report->Add("encoding.decode_cache_hits_per_query",
              per_query(t.nav.decode_cache_hits), "count");
  report->Add("encoding.bp_steps_per_query", per_query(t.nav.bp_steps),
              "count");
  report->Add("encoding.bp_steps_per_result",
              t.results == 0 ? 0
                             : static_cast<double>(t.nav.bp_steps) /
                                   static_cast<double>(t.results),
              "count");
  report->Add("encoding.bp_tag_blocks_skipped_per_query",
              per_query(t.nav.bp_tag_blocks_skipped), "count");
  report->Add("encoding.stale_query_frac",
              PerQuery(static_cast<double>(t.stale_queries), q), "ratio");
  // storage: the tree-string buffer pool
  report->Add("storage.tree_pool.fetches_per_query",
              per_query(t.pools.tree.fetches), "count");
  report->Add("storage.tree_pool.hit_rate", HitRate(t.pools.tree), "ratio");
  report->Add("storage.tree_pool.misses_per_query",
              per_query(t.pools.tree.misses), "count");
  report->Add("storage.tree_pool.evictions_per_query",
              per_query(t.pools.tree.evictions), "count");
  // btree: each index's pool on the read path
  const std::pair<const char*, const nok::BufferPool::Stats*> trees[] = {
      {"tag", &t.pools.tag},
      {"value", &t.pools.value},
      {"id", &t.pools.id},
      {"path", &t.pools.path}};
  for (const auto& [name, stats] : trees) {
    const std::string prefix = std::string("btree.") + name;
    report->Add(prefix + ".fetches_per_query", per_query(stats->fetches),
                "count");
    report->Add(prefix + ".hit_rate", HitRate(*stats), "ratio");
    report->Add(prefix + ".disk_reads_per_query",
                per_query(stats->disk_reads), "count");
  }
}

void EmitUpdateLayerMetrics(const UpdateLayerTrace& t, Report* report) {
  auto ms = [](const std::vector<double>& s, double q) {
    return Percentile(s, q) * 1e3;
  };
  report->Add("insert_p50_ms", ms(t.insert_s, 0.5), "ms");
  report->Add("delete_p50_ms", ms(t.delete_s, 0.5), "ms");
  report->Add("commit_p50_ms", ms(t.commit_s, 0.5), "ms");
  report->Add("commit_p90_ms", ms(t.commit_s, 0.9), "ms");
  report->Add("encoding.snapshot_pin_us", Median(t.pin_s) * 1e6, "us");
  report->Add("encoding.swmr_retained_bytes",
              static_cast<double>(t.retained_bytes), "bytes");
  auto per = [](uint64_t v, uint64_t n) {
    return n == 0 ? 0 : static_cast<double>(v) / static_cast<double>(n);
  };
  report->Add("storage.wal.bytes_per_commit",
              per(t.wal.bytes_logged, t.commits), "bytes");
  report->Add("storage.wal.records_per_commit",
              per(t.wal.records_logged, t.commits), "count");
  report->Add("storage.wal.syncs_per_commit",
              per(t.wal.wal_syncs, t.commits), "count");
  const std::pair<const char*, std::pair<const nok::BufferPool::Stats*,
                                         const nok::BufferPool::Stats*>>
      trees[] = {{"tag", {&t.update_pools.tag, &t.commit_pools.tag}},
                 {"value", {&t.update_pools.value, &t.commit_pools.value}},
                 {"id", {&t.update_pools.id, &t.commit_pools.id}},
                 {"path", {&t.update_pools.path, &t.commit_pools.path}}};
  for (const auto& [name, pools] : trees) {
    const std::string prefix = std::string("btree.") + name;
    report->Add(prefix + ".fetches_per_update",
                per(pools.first->fetches, t.update_ops), "count");
    report->Add(prefix + ".disk_writes_per_commit",
                per(pools.second->disk_writes, t.commits), "count");
  }
}

void EmitSetupLayerMetrics(const SetupLayerTimes& t, Report* report) {
  report->Add("encoding.build_s", Median(t.build_s), "s");
  report->Add("encoding.flush_s", Median(t.flush_s), "s");
  report->Add("encoding.open_s", Median(t.open_s), "s");
  report->Add("reopen_s", Median(t.reopen_s), "s");
  report->Add("encoding.bp_from_sidecar", t.bp_from_sidecar ? 1 : 0, "bool");
  report->Add("encoding.synopsis_from_sidecar",
              t.synopsis_from_sidecar ? 1 : 0, "bool");
}

}  // namespace nokbench
