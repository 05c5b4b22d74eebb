// The benchmark's result line: one JSON object with the answer-check
// verdict, operation counts, named metrics with units, and the run's
// environment.

#ifndef NOKBENCH_REPORT_H_
#define NOKBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nokbench {

class Report {
 public:
  /// Records a metric; a name added twice keeps the last value.
  void Add(const std::string& name, double value, const std::string& unit);
  void SetEnv(const std::string& key, const std::string& value);
  void SetEnv(const std::string& key, double value);

  /// One operation attempted; `ok` false counts it as failed (an error
  /// status or a wrong answer).
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// {"correct", "attempted", "failed", "metrics", "env"} on one line.
  /// Values are printed with every digit the double carries.
  std::string ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::map<std::string, std::string> env_;  // Values already JSON.
};

}  // namespace nokbench

#endif  // NOKBENCH_REPORT_H_
