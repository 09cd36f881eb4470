#ifndef RNTRAJ_PERFBENCH_BENCH_LIB_H_
#define RNTRAJ_PERFBENCH_BENCH_LIB_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/request.h"
#include "src/traj/trajectory.h"

/// \file bench_lib.h
/// The benchmark's own arithmetic, kept apart from the driver so the
/// self-tests (selftest.cc) can pin it: percentiles, failure accounting,
/// the answer check, the goodput bisection, span self time, and the JSON
/// record writer.

namespace perfbench {

// ----- Percentiles -----------------------------------------------------------

/// q-quantile of an ascending-sorted sample under the tree's rank rule
/// (obs::QuantileRank: the floor(q * (n - 1))-th smallest, no
/// interpolation); 0 when empty. Sorting once and reading several quantiles
/// is what the windows need; the self-tests hold it equal to
/// obs::ExactQuantile.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Median, p90, p99 and max of a sample, with its size.
struct Dist {
  int64_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
Dist Summarize(std::vector<double> values);

// ----- Outcomes --------------------------------------------------------------

/// Why an attempted operation did not count as done. The first four mirror
/// the service's non-ok response kinds; wrong_answer is the benchmark's own
/// verdict from the answer check.
enum class Failure : int {
  kShed = 0,
  kDeadlineMissed,
  kInternalError,
  kValidationError,
  kWrongAnswer,
  kCount,
};
constexpr int kFailureKinds = static_cast<int>(Failure::kCount);
const char* FailureName(Failure f);

/// Maps a non-ok service response kind to its failure kind.
Failure FailureOf(rntraj::serve::ResponseKind kind);

/// Attempted operations split into ok plus one count per failure kind:
/// attempted == ok + sum(failed) by construction.
struct Outcomes {
  int64_t attempted = 0;
  int64_t ok = 0;
  std::array<int64_t, kFailureKinds> failed{};

  void Ok() {
    ++attempted;
    ++ok;
  }
  void Fail(Failure f) {
    ++attempted;
    ++failed[static_cast<size_t>(f)];
  }
  void Add(const Outcomes& other);
  int64_t failed_total() const;
  bool Balanced() const { return attempted == ok + failed_total(); }
};

// ----- Answer check ----------------------------------------------------------

/// True when `served` is the same answer as `reference`: same length,
/// identical segment ids and timestamps, finite ratios within `ratio_tol`.
/// On mismatch `*why` names the first difference.
bool AnswerMatches(const rntraj::MatchedTrajectory& served,
                   const rntraj::MatchedTrajectory& reference,
                   double ratio_tol, std::string* why);

// ----- Goodput search --------------------------------------------------------

/// Verdict of one open-loop window against the goodput conditions.
struct WindowVerdict {
  double ok_share = 0.0;   ///< ok / attempted.
  double p99_ms = 0.0;     ///< Failures count as slower than any limit.
  int64_t backlog_end = 0; ///< Outstanding when the schedule ended.
};

/// The three goodput conditions: at least `min_ok_share` answered ok, p99
/// within `limit_ms`, and a backlog at the end of the schedule no larger
/// than what `rate` requests per second can hold within the limit (more
/// means the queue grew during the window).
bool MeetsGoodput(const WindowVerdict& v, double rate, double limit_ms,
                  double min_ok_share);

/// Highest rate in [lo, hi] that passes `probe`, by bisection: `lo` is
/// known to pass and `hi` is taken to fail. The search narrows until
/// (hi - lo) <= resolution * lo and returns the highest passing rate it
/// probed (`lo` when no probe passed). Probed rates and verdicts are
/// appended to `*probed` when given.
double BisectGoodput(double lo, double hi, double resolution,
                     const std::function<bool(double)>& probe,
                     std::vector<std::pair<double, bool>>* probed = nullptr);

// ----- Spans -----------------------------------------------------------------

/// One recorded interval. `parent` is the index of the enclosing span in
/// the same log (-1 for a root); spans of one request or phase share
/// `trace_id`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t trace_id = 0;
};

/// In-memory span log, written out once at exit. Thread-safe. A disabled
/// log records nothing and Begin returns -1.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  int Begin(const std::string& name, int parent, int64_t trace_id);
  /// Records a finished interval directly (for spans timed elsewhere).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, int64_t trace_id);
  void End(int id);
  int64_t NowNs() const { return ToNs(std::chrono::steady_clock::now()); }
  /// A steady-clock instant on this log's time axis.
  int64_t ToNs(std::chrono::steady_clock::time_point t) const;
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children clipped to the parent,
/// overlaps between concurrent children counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Spans as a JSON array (one object per span, with its self time).
std::string SpansToJson(const std::vector<Span>& spans);

// ----- Records ---------------------------------------------------------------

/// A flat JSON object builder: keys in insertion order, numbers printed
/// with every digit std::to_chars gives (shortest round-trip form).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, int64_t v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// Peak resident set (VmHWM) of this process in MB; 0 when unreadable.
double PeakRssMb();

/// CPU model name from /proc/cpuinfo ("unknown" when unreadable).
std::string CpuModel();

/// CPUs this process may run on.
int UsableCpus();

}  // namespace perfbench

#endif  // RNTRAJ_PERFBENCH_BENCH_LIB_H_
