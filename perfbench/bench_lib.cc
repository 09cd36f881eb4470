#include "perfbench/bench_lib.h"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>

#include "src/obs/quantile.h"

namespace perfbench {

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const long long n = static_cast<long long>(sorted.size());
  return sorted[static_cast<size_t>(rntraj::obs::QuantileRank(q, n))];
}

Dist Summarize(std::vector<double> values) {
  Dist d;
  d.n = static_cast<int64_t>(values.size());
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = SortedQuantile(values, 0.50);
  d.p90 = SortedQuantile(values, 0.90);
  d.p99 = SortedQuantile(values, 0.99);
  d.max = values.back();
  return d;
}

const char* FailureName(Failure f) {
  switch (f) {
    case Failure::kShed: return "shed";
    case Failure::kDeadlineMissed: return "deadline_missed";
    case Failure::kInternalError: return "internal_error";
    case Failure::kValidationError: return "validation_error";
    case Failure::kWrongAnswer: return "wrong_answer";
    case Failure::kCount: break;
  }
  return "?";
}

Failure FailureOf(rntraj::serve::ResponseKind kind) {
  using rntraj::serve::ResponseKind;
  switch (kind) {
    case ResponseKind::kShed: return Failure::kShed;
    case ResponseKind::kDeadlineMissed: return Failure::kDeadlineMissed;
    case ResponseKind::kValidationError: return Failure::kValidationError;
    case ResponseKind::kOk:  // an ok kind reaching here is a service bug
    case ResponseKind::kInternalError: break;
  }
  return Failure::kInternalError;
}

void Outcomes::Add(const Outcomes& other) {
  attempted += other.attempted;
  ok += other.ok;
  for (int i = 0; i < kFailureKinds; ++i) failed[i] += other.failed[i];
}

int64_t Outcomes::failed_total() const {
  int64_t total = 0;
  for (int64_t f : failed) total += f;
  return total;
}

bool AnswerMatches(const rntraj::MatchedTrajectory& served,
                   const rntraj::MatchedTrajectory& reference,
                   double ratio_tol, std::string* why) {
  const auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (served.size() != reference.size()) {
    return fail("length " + std::to_string(served.size()) + " != " +
                std::to_string(reference.size()));
  }
  for (int j = 0; j < served.size(); ++j) {
    const rntraj::MatchedPoint& a = served.points[j];
    const rntraj::MatchedPoint& b = reference.points[j];
    const std::string at = " at point " + std::to_string(j);
    if (a.seg_id != b.seg_id) return fail("segment id differs" + at);
    if (a.t != b.t) return fail("timestamp differs" + at);
    if (!std::isfinite(a.ratio) || !std::isfinite(b.ratio)) {
      return fail("non-finite ratio" + at);
    }
    if (std::abs(a.ratio - b.ratio) > ratio_tol) {
      return fail("ratio differs" + at);
    }
  }
  return true;
}

bool MeetsGoodput(const WindowVerdict& v, double rate, double limit_ms,
                  double min_ok_share) {
  const double backlog_cap = std::max(1.0, rate * limit_ms / 1000.0);
  return v.ok_share >= min_ok_share && v.p99_ms <= limit_ms &&
         static_cast<double>(v.backlog_end) <= backlog_cap;
}

double BisectGoodput(double lo, double hi, double resolution,
                     const std::function<bool(double)>& probe,
                     std::vector<std::pair<double, bool>>* probed) {
  while (hi - lo > resolution * lo) {
    const double mid = 0.5 * (lo + hi);
    const bool pass = probe(mid);
    if (probed != nullptr) probed->emplace_back(mid, pass);
    (pass ? lo : hi) = mid;
  }
  return lo;
}

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t SpanLog::ToNs(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int SpanLog::Begin(const std::string& name, int parent, int64_t trace_id) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Add(name, now, now, parent, trace_id);
}

int SpanLog::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                 int parent, int64_t trace_id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, trace_id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  if (!enabled_ || id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.parent >= static_cast<int>(spans.size())) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) children[static_cast<size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += JsonObject()
               .Int("id", static_cast<int64_t>(i))
               .Str("name", s.name)
               .Int("start_ns", s.start_ns)
               .Int("end_ns", s.end_ns)
               .Int("parent", s.parent)
               .Int("trace_id", s.trace_id)
               .Int("self_ns", self[i])
               .str();
  }
  return out + "]\n";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  body_ += JsonNumber(v);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += JsonString(v);
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace perfbench
