// Page-skip ablation: measures how much of a forced sequential scan the
// paper's (st,lo,hi) header skip avoids, over tags of decreasing frequency
// (the dataset's always-present detail tag down to the rarest planted
// marker).
//
// The two modes are use_header_skip off and on; every query runs with
// StartStrategy::kScan so the scan path is exercised even where planning
// would pick an index.  Results must be identical across modes (the knob
// only changes which pages are touched); the run fails if they differ.
//
// Usage: bench_pageskip [--dataset catalog] [--scale 0.05] [--seed 42]
//                       [--page-size 512] [--runs 3]
//                       [--json BENCH_pageskip.json]

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "datagen/dataset_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"

namespace nok {
namespace {

struct Mode {
  bool header_skip;
  const char* name;
};

constexpr Mode kModes[] = {
    {false, "none"},
    {true, "header"},
};

/// One (mode, tag) measurement.
struct Cell {
  std::string tag;
  uint64_t tag_count = 0;
  size_t results = 0;
  double mean_seconds = 0;
  StringStore::NavStats nav;
  std::vector<std::string> deweys;  ///< For the cross-mode identity check.
};

int Run(int argc, char** argv) {
  GenOptions gen;
  gen.scale = bench::FlagDouble(argc, argv, "scale", 0.05);
  gen.seed = static_cast<uint64_t>(bench::FlagInt(argc, argv, "seed", 42));
  const std::string dataset_name =
      bench::FlagValue(argc, argv, "dataset", "catalog");
  const uint32_t page_size = static_cast<uint32_t>(
      bench::FlagInt(argc, argv, "page-size", 512));
  const int runs = bench::FlagInt(argc, argv, "runs", 3);
  const std::string json_path =
      bench::FlagValue(argc, argv, "json", "BENCH_pageskip.json");

  Dataset dataset = Dataset::kCatalog;
  bool found = false;
  for (Dataset d : AllDatasets()) {
    if (DatasetName(d) == dataset_name) {
      dataset = d;
      found = true;
    }
  }
  if (!found) {
    fprintf(stderr, "unknown dataset: %s\n", dataset_name.c_str());
    return 2;
  }

  GeneratedDataset ds = GenerateDataset(dataset, gen);
  // Frequency sweep: the always-present detail tag, then the marker chain
  // extra > rare > gem (each strictly rarer than the previous).
  const std::vector<std::string> sweep = {ds.detail_a, ds.marker_extra,
                                          ds.marker_rare, ds.marker_gem};

  printf("page-skip ablation: %s (scale %.3f, page size %u, %d runs)\n\n",
         ds.name.c_str(), gen.scale, page_size, runs);
  printf("%-7s %-10s %9s %8s %9s %9s %9s\n", "mode", "tag", "count",
         "results", "scanned", "lvl-skip", "mean ms");

  std::vector<std::vector<Cell>> grid;  // [mode][tag].
  uint64_t node_count = 0;
  size_t chain_pages = 0;
  for (const Mode& mode : kModes) {
    DocumentStore::Options options;
    options.page_size = page_size;
    options.use_header_skip = mode.header_skip;
    auto store = DocumentStore::Build(ds.xml, options);
    if (!store.ok()) {
      fprintf(stderr, "build failed: %s\n",
              store.status().ToString().c_str());
      return 1;
    }
    node_count = (*store)->stats().node_count;
    chain_pages = (*store)->tree()->chain_length();

    std::vector<Cell> row;
    for (const std::string& tag : sweep) {
      Cell cell;
      cell.tag = tag;
      auto tag_id = (*store)->tags()->Lookup(tag);
      cell.tag_count = tag_id.has_value() ? (*store)->CountTag(*tag_id) : 0;

      QueryEngine engine(store->get());
      QueryOptions qo;
      qo.strategy = StartStrategy::kScan;
      const std::string xpath = "//" + tag;
      double total_seconds = 0;
      for (int r = 0; r < runs; ++r) {
        Status s = (*store)->DropCaches();
        if (!s.ok()) {
          fprintf(stderr, "drop caches failed: %s\n", s.ToString().c_str());
          return 1;
        }
        (*store)->tree()->ResetNavStats();
        Timer timer;
        auto result = engine.Evaluate(xpath, qo);
        total_seconds += timer.ElapsedSeconds();
        if (!result.ok()) {
          fprintf(stderr, "%s failed: %s\n", xpath.c_str(),
                  result.status().ToString().c_str());
          return 1;
        }
        if (r + 1 == runs) {  // Counters are identical run to run.
          cell.results = result->size();
          cell.nav = (*store)->tree()->nav_stats();
          cell.deweys.reserve(result->size());
          for (const DeweyId& id : *result) {
            cell.deweys.push_back(id.ToString());
          }
        }
      }
      cell.mean_seconds = total_seconds / runs;
      printf("%-7s %-10s %9llu %8zu %9llu %9llu %9.3f\n", mode.name,
             tag.c_str(), static_cast<unsigned long long>(cell.tag_count),
             cell.results,
             static_cast<unsigned long long>(cell.nav.pages_scanned),
             static_cast<unsigned long long>(cell.nav.pages_skipped),
             cell.mean_seconds * 1e3);
      row.push_back(std::move(cell));
    }
    grid.push_back(std::move(row));
  }

  // The knob must not change answers.
  bool identical = true;
  for (size_t m = 1; m < grid.size(); ++m) {
    for (size_t q = 0; q < grid[m].size(); ++q) {
      if (grid[m][q].deweys != grid[0][q].deweys) {
        identical = false;
        fprintf(stderr,
                "RESULT MISMATCH: mode %s disagrees with mode %s on //%s\n",
                kModes[m].name, kModes[0].name, grid[m][q].tag.c_str());
      }
    }
  }
  std::string json = "{\n";
  char buf[512];
  snprintf(buf, sizeof(buf),
           "  \"dataset\": \"%s\",\n  \"scale\": %.4f,\n"
           "  \"seed\": %llu,\n  \"page_size\": %u,\n  \"runs\": %d,\n"
           "  \"node_count\": %llu,\n  \"chain_pages\": %zu,\n"
           "  \"measurements\": [\n",
           ds.name.c_str(), gen.scale,
           static_cast<unsigned long long>(gen.seed), page_size, runs,
           static_cast<unsigned long long>(node_count), chain_pages);
  json += buf;
  for (size_t m = 0; m < grid.size(); ++m) {
    for (size_t q = 0; q < grid[m].size(); ++q) {
      const Cell& c = grid[m][q];
      snprintf(
          buf, sizeof(buf),
          "    {\"mode\": \"%s\", \"header_skip\": %s, "
          "\"tag\": \"%s\", \"tag_count\": %llu, "
          "\"results\": %zu, \"mean_seconds\": %.6f, "
          "\"pages_scanned\": %llu, \"pages_skipped\": %llu, "
          "\"decode_cache_hits\": %llu}%s\n",
          kModes[m].name, kModes[m].header_skip ? "true" : "false",
          c.tag.c_str(), static_cast<unsigned long long>(c.tag_count),
          c.results, c.mean_seconds,
          static_cast<unsigned long long>(c.nav.pages_scanned),
          static_cast<unsigned long long>(c.nav.pages_skipped),
          static_cast<unsigned long long>(c.nav.decode_cache_hits),
          m + 1 == grid.size() && q + 1 == grid[m].size() ? "" : ",");
      json += buf;
    }
  }
  snprintf(buf, sizeof(buf),
           "  ],\n  \"checks\": {\"results_identical\": %s}\n}\n",
           identical ? "true" : "false");
  json += buf;

  Status s = WriteStringToFile(json_path, Slice(json));
  if (!s.ok()) {
    fprintf(stderr, "write %s failed: %s\n", json_path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  printf("\nreport: %s (%s)\n", json_path.c_str(),
         identical ? "checks passed" : "CHECKS FAILED");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace nok

int main(int argc, char** argv) { return nok::Run(argc, argv); }
