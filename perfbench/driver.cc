// The end-to-end benchmark driver: runs ONE workload per invocation and
// prints its result as the last line of stdout. run.py builds and invokes
// it; README.md documents every workload and metric.
//
//   perfbench --workload <online_small|bulk_full|train_small> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]
//
// The workload seed sets the arrival schedule and the request order; the
// library sees only the generated requests. Rates, limits and schedules are
// absolute constants below and are never calibrated during a run: a
// calibrated rate would move with the program and hide a gain.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_lib.h"
#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/core/trainer.h"
#include "src/eval/metrics.h"
#include "src/fleet/profiles.h"
#include "src/obs/stage_profiler.h"
#include "src/serve/recovery_service.h"
#include "src/serve/workload.h"
#include "src/sim/dataset.h"
#include "src/tensor/buffer_pool.h"

#ifndef PB_BUILD_FLAGS
#define PB_BUILD_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rntraj::Dataset;
using rntraj::MatchedTrajectory;
using rntraj::ModelContext;
using rntraj::RnTrajRec;
using rntraj::serve::RecoveryRequest;
using rntraj::serve::RecoveryResponse;
using rntraj::serve::RecoveryService;
using rntraj::serve::RecoveryServiceConfig;
using rntraj::serve::ResponseKind;

// ----- Fixed load points and limits -----------------------------------------

constexpr double kLowRate = 200.0;     ///< req/s, nothing contends.
constexpr double kHighRate = 600.0;    ///< req/s, well below the knee.
constexpr double kWarmupRate = 400.0;  ///< req/s, untimed warm-up.
/// The goodput search starts from the high rate (its window is the known
/// passing point) and bisects up to this rate.
constexpr double kGoodputHi = 1600.0;
constexpr double kGoodputResolution = 0.02;
constexpr double kLatencyLimitMs = 50.0;
constexpr double kMinOkShare = 0.99;
/// Every request carries a budget, so a stall shows up as a counted
/// deadline_missed failure instead of an unbounded tail. A bulk request
/// waits behind the whole in-flight window (64 / throughput, about 200 ms
/// on a 4-core box), so its budget leaves room for that wait.
constexpr double kOnlineDeadlineMs = 250.0;
constexpr double kBulkDeadlineMs = 1000.0;
/// A failed request's latency: slower than any limit.
constexpr double kFailedLatencyMs = 1e6;
constexpr int kBulkInFlight = 64;
constexpr int kServeSessions = 2;
constexpr int kTrainEpochs = 4;
constexpr int kTrainBatch = 8;
constexpr uint64_t kTrainSeed = 123;
constexpr uint64_t kModelSeed = 12345;
constexpr double kRatioTol = 1e-5;
/// Test samples whose served answers are compared with RecoverNow.
constexpr int kCheckSamples = 24;

// Share of --seconds each phase gets, and how it is cut into slices.
constexpr double kOnlineWarmupShare = 0.08;
constexpr double kOnlineLowShare = 0.40;
constexpr int kOnlineLowSlices = 4;
constexpr double kOnlineHighShare = 0.15;
constexpr int kOnlineHighSlices = 2;
constexpr double kProbeShare = 0.06;
/// Requests per goodput probe at least, so its p99 has ten samples beyond.
constexpr int kProbeMinRequests = 1000;
constexpr double kBulkWarmupShare = 0.10;
/// Warm-ups last at least this long whatever --seconds is: a service needs
/// a few seconds of traffic before its latency settles.
constexpr double kMinWarmupS = 3.0;
constexpr int kBulkSlices = 6;
constexpr int kTrainWarmupEpochs = 1;
/// Fresh set-ups timed at every gap between phases and slices. The box's
/// speed shifts between fast and slow spells lasting a fraction of a
/// second, so set-ups spread over the whole run give a steadier median
/// than a burst of them at its start.
constexpr int kServingSetupsPerGap = 2;
constexpr int kBulkSetupsPerGap = 2;
constexpr int kTrainSetupsPerGap = 3;

/// The metrics the result line carries; names and units match
/// BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"goodput_per_s", "1/s"},
    {"lat_p50_ms", "ms"},     {"lat_p90_ms", "ms"},
    {"recovery_f1", "ratio"}, {"recovery_mae_m", "m"},
    {"peak_rss_mb", "MB"},
};
const std::vector<MetricSpec> kPerLayer = {
    {"sim.build_ms", "ms"},
    {"core.model_init_ms", "ms"},
    {"core.begin_inference_ms", "ms"},
    {"tensor.bufpool.hit_ratio", "ratio"},
    {"core.stage.subgraph_ms", "ms"},
    {"core.stage.transformer_ms", "ms"},
    {"core.stage.gat_ms", "ms"},
    {"core.stage.grl_ms", "ms"},
    {"core.stage.constraint_mask_ms", "ms"},
    {"core.stage.decoder_ms", "ms"},
    {"core.stage.coverage", "ratio"},
    {"core.unstaged_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        out->workload = value;
      } else if (flag == "--seed") {
        out->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        out->seconds = std::stod(value);
      } else if (flag == "--trace") {
        out->trace = value == "1";
      } else if (flag == "--out-dir") {
        out->out_dir = value;
      } else if (flag == "--git-sha") {
        out->git_sha = value;
      } else {
        *error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (out->workload != "online_small" && out->workload != "bulk_full" &&
      out->workload != "train_small") {
    *error = "--workload must be online_small, bulk_full or train_small";
    return false;
  }
  if (!(out->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// ----- Small helpers ---------------------------------------------------------

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) out += (out.size() > 1 ? ", " : "") + JsonNumber(v);
  return out + "]";
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

/// Runs `fn`, records it as a span under `parent` and returns its ms.
template <typename Fn>
double Timed(SpanLog& log, const char* name, int parent, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  log.Add(name, log.ToNs(t0), log.ToNs(t1), parent, 0);
  return MsBetween(t0, t1);
}

/// Structural validity of any answer: one point per target timestamp, a
/// real segment id, a finite ratio in [0, 1].
bool WellFormed(const MatchedTrajectory& answer, size_t grid_len,
                int num_segments) {
  if (answer.points.size() != grid_len) return false;
  for (const rntraj::MatchedPoint& p : answer.points) {
    if (p.seg_id < 0 || p.seg_id >= num_segments) return false;
    if (!std::isfinite(p.ratio) || p.ratio < 0.0 || p.ratio > 1.0) {
      return false;
    }
  }
  return true;
}

rntraj::fleet::FleetProfile Profile(const std::string& name) {
  rntraj::fleet::FleetProfile profile;
  std::string error;
  if (!rntraj::fleet::LookupFleetProfile(name, &profile, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  return profile;
}

/// Named metric values of one pass.
struct Values {
  std::map<std::string, double> v;
  Values& Num(const std::string& key, double x) {
    v[key] = x;
    return *this;
  }
  std::string str() const {
    JsonObject o;
    for (const auto& [key, x] : v) o.Num(key, x);
    return o.str();
  }
};

// ----- Layer counters --------------------------------------------------------

/// Counters read at the edges of a timed stretch.
struct LayerSnap {
  rntraj::obs::MetricsSnapshot metrics;
  rntraj::obs::StageProfile stages;
  int64_t row_lookups = 0;
  rntraj::BufferPoolStats pool;  ///< The calling thread's pool (training).
};

LayerSnap TakeSnap(const RecoveryService* svc,
                   const rntraj::NetworkDistance& nd) {
  LayerSnap s;
  if (svc != nullptr) s.metrics = svc->Metrics();
  s.stages = rntraj::obs::StageProfiler::Global().Snapshot();
  s.row_lookups = nd.row_hits() + nd.row_misses();
  s.pool = rntraj::GetBufferPoolStats();
  return s;
}

/// What the layers did inside timed stretches, summed over stretches.
struct LayerDelta {
  std::map<std::string, int64_t> counters;  ///< Service counters.
  double busy_s = 0.0;                       ///< Session forward time.
  rntraj::obs::StageProfile stages;
  /// Dijkstra-row lookups. RnTrajRec's forward and training never query
  /// NetworkDistance (only scoring and the degraded-rung HMM do), so this
  /// reads zero in every timed phase; it is recorded to show that.
  int64_t row_lookups = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;

  void Add(const LayerDelta& o) {
    for (const auto& [key, n] : o.counters) counters[key] += n;
    busy_s += o.busy_s;
    for (int i = 0; i < rntraj::obs::kStageCount; ++i) {
      stages.stages[i].ns += o.stages.stages[i].ns;
      stages.stages[i].count += o.stages.stages[i].count;
    }
    row_lookups += o.row_lookups;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
  }
  double Counter(const std::string& key) const {
    const auto it = counters.find(key);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
};

LayerDelta Diff(const LayerSnap& a, const LayerSnap& b) {
  LayerDelta d;
  for (const auto& [key, n] : b.metrics.counters) {
    const auto it = a.metrics.counters.find(key);
    d.counters[key] = n - (it == a.metrics.counters.end() ? 0 : it->second);
  }
  const auto busy = [](const LayerSnap& s) {
    const auto it = s.metrics.gauges.find("serve.sessions.busy_seconds");
    return it == s.metrics.gauges.end() ? 0.0 : it->second;
  };
  d.busy_s = busy(b) - busy(a);
  d.stages = b.stages.Delta(a.stages);
  d.row_lookups = b.row_lookups - a.row_lookups;
  d.pool_hits = static_cast<int64_t>(b.pool.hits - a.pool.hits);
  d.pool_misses = static_cast<int64_t>(b.pool.misses - a.pool.misses);
  return d;
}

/// Stage times per unit of work, their coverage of `compute_s`, and the
/// uncovered remainder per unit.
void AddStageMetrics(const rntraj::obs::StageProfile& stages, double units,
                     double compute_s, Values* layers) {
  using rntraj::obs::Stage;
  static const std::pair<Stage, const char*> kStages[] = {
      {Stage::kSubgraph, "core.stage.subgraph_ms"},
      {Stage::kTransformer, "core.stage.transformer_ms"},
      {Stage::kGat, "core.stage.gat_ms"},
      {Stage::kGrl, "core.stage.grl_ms"},
      {Stage::kConstraintMask, "core.stage.constraint_mask_ms"},
      {Stage::kDecoder, "core.stage.decoder_ms"},
  };
  for (const auto& [stage, name] : kStages) {
    layers->Num(name,
                Ratio(stages.stages[static_cast<int>(stage)].Ms(), units));
  }
  const double staged_s = static_cast<double>(stages.TotalNs()) / 1e9;
  layers->Num("core.stage.coverage", Ratio(staged_s, compute_s));
  layers->Num("core.unstaged_ms", Ratio((compute_s - staged_s) * 1e3, units));
}

// ----- Requests and windows --------------------------------------------------

/// Cycles through the test samples in an order reshuffled from the workload
/// seed on every pass; the same engine draws the arrival schedule.
class RequestOrder {
 public:
  RequestOrder(int n, uint64_t seed) : rng_(seed), order_(n) {
    for (int i = 0; i < n; ++i) order_[i] = i;
    pos_ = order_.size();
  }
  int Next() {
    if (pos_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_.engine());
      pos_ = 0;
    }
    return order_[pos_++];
  }
  rntraj::Rng& rng() { return rng_; }

 private:
  rntraj::Rng rng_;
  std::vector<int> order_;
  size_t pos_ = 0;
};

std::vector<RecoveryRequest> RequestPool(const Dataset& ds,
                                         double deadline_ms) {
  std::vector<RecoveryRequest> pool;
  for (const auto& s : ds.test()) {
    RecoveryRequest req = rntraj::serve::RequestFromSample(s);
    req.deadline_ms = deadline_ms;
    pool.push_back(std::move(req));
  }
  return pool;
}

/// One request's life in a window.
struct Slot {
  RecoveryRequest req;
  int sample = 0;
  Clock::time_point due;  ///< Scheduled send (open loop) or submit (closed).
  Clock::time_point sent;
  Clock::time_point done;
  std::future<RecoveryResponse> fut;
  RecoveryResponse resp;
};

/// Stamps and collects every ready future among `pending` (slot indices),
/// after waiting up to `wait` for the oldest. Returns how many completed.
int SweepReady(std::deque<Slot>& slots, std::vector<int>* pending,
               Clock::duration wait) {
  if (pending->empty()) return 0;
  slots[static_cast<size_t>(pending->front())].fut.wait_for(wait);
  int completed = 0;
  auto keep = pending->begin();
  for (int idx : *pending) {
    Slot& s = slots[static_cast<size_t>(idx)];
    if (s.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      s.done = Clock::now();
      s.resp = s.fut.get();
      ++completed;
    } else {
      *keep++ = idx;
    }
  }
  pending->erase(keep, pending->end());
  return completed;
}

/// A timed (or warm-up) window, possibly made of several slices, and what
/// the layers did inside it.
struct Window {
  std::string name;
  double rate = 0.0;        ///< Offered req/s (open loop).
  double seconds = 0.0;     ///< Scheduled length, summed over slices.
  double wall_s = 0.0;      ///< Start to last completion, summed.
  int64_t backlog_end = 0;  ///< Most outstanding when a schedule ended.
  std::deque<Slot> slots;
  LayerDelta layers;
  Outcomes outcomes;
  std::vector<double> latency_ms;  ///< Failures at kFailedLatencyMs.
  int64_t ok_in_window = 0;        ///< Completed ok before a slice ended.
};

/// Classifies every response of a freshly run slice and fills its outcome
/// counts and latency sample (from `due`, so a stall's wait on later
/// requests counts).
void Score(Window* w, const Dataset& ds, Clock::time_point start) {
  const int segs = ds.roadnet().num_segments();
  const Clock::time_point end = start + Secs(w->seconds);
  Clock::time_point last = start;
  for (const Slot& s : w->slots) {
    last = std::max(last, s.done);
    const RecoveryResponse& r = s.resp;
    if (r.kind != ResponseKind::kOk) {
      w->outcomes.Fail(FailureOf(r.kind));
      w->latency_ms.push_back(kFailedLatencyMs);
    } else if (!WellFormed(r.recovered,
                           ds.test()[static_cast<size_t>(s.sample)]
                               .truth.points.size(),
                           segs)) {
      w->outcomes.Fail(Failure::kWrongAnswer);
      w->latency_ms.push_back(kFailedLatencyMs);
    } else {
      w->outcomes.Ok();
      w->latency_ms.push_back(MsBetween(s.due, s.done));
      if (s.done <= end) ++w->ok_in_window;
    }
  }
  w->wall_s = std::chrono::duration<double>(last - start).count();
}

/// Open loop: the generator (this thread) sends on a seeded Poisson
/// schedule regardless of completions; a completion thread stamps answers.
Window RunOpenLoop(RecoveryService& svc, const Dataset& ds,
                   const std::vector<RecoveryRequest>& pool,
                   RequestOrder& order, const std::string& name, double rate,
                   double seconds) {
  Window w;
  w.name = name;
  w.rate = rate;
  w.seconds = seconds;
  std::vector<double> arrivals;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - order.rng().Uniform(0.0, 1.0)) / rate;
    if (t > seconds) break;
    arrivals.push_back(t);
  }
  const int n = static_cast<int>(arrivals.size());
  w.slots.resize(static_cast<size_t>(n));
  for (Slot& s : w.slots) {
    s.sample = order.Next();
    s.req = pool[static_cast<size_t>(s.sample)];
  }
  const LayerSnap before = TakeSnap(&svc, ds.netdist());
  std::atomic<int> published{0};
  std::atomic<int> completed{0};
  std::thread completer([&] {
    std::vector<int> pending;
    int seen = 0;
    while (completed.load(std::memory_order_relaxed) < n) {
      const int upto = published.load(std::memory_order_acquire);
      for (; seen < upto; ++seen) pending.push_back(seen);
      if (pending.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      completed.fetch_add(
          SweepReady(w.slots, &pending, std::chrono::microseconds(200)),
          std::memory_order_relaxed);
    }
  });
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (int i = 0; i < n; ++i) {
    Slot& s = w.slots[static_cast<size_t>(i)];
    s.due = start + Secs(arrivals[static_cast<size_t>(i)]);
    std::this_thread::sleep_until(s.due);
    s.sent = Clock::now();
    s.fut = svc.Submit(std::move(s.req));
    published.store(i + 1, std::memory_order_release);
  }
  w.backlog_end = n - completed.load(std::memory_order_relaxed);
  completer.join();
  w.layers = Diff(before, TakeSnap(&svc, ds.netdist()));
  Score(&w, ds, start);
  return w;
}

/// Closed loop: keeps `in_flight` requests outstanding, refilling as each
/// completes, for `seconds`; then drains.
Window RunClosedLoop(RecoveryService& svc, const Dataset& ds,
                     const std::vector<RecoveryRequest>& pool,
                     RequestOrder& order, const std::string& name,
                     int in_flight, double seconds) {
  Window w;
  w.name = name;
  w.seconds = seconds;
  const LayerSnap before = TakeSnap(&svc, ds.netdist());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Secs(seconds);
  std::vector<int> pending;
  const auto submit = [&] {
    Slot& s = w.slots.emplace_back();
    s.sample = order.Next();
    s.due = s.sent = Clock::now();
    s.fut = svc.Submit(pool[static_cast<size_t>(s.sample)]);
    pending.push_back(static_cast<int>(w.slots.size()) - 1);
  };
  for (int i = 0; i < in_flight; ++i) submit();
  while (!pending.empty()) {
    const int got =
        SweepReady(w.slots, &pending, std::chrono::microseconds(200));
    if (Clock::now() < end) {
      for (int i = 0; i < got; ++i) submit();
    }
  }
  w.layers = Diff(before, TakeSnap(&svc, ds.netdist()));
  Score(&w, ds, start);
  return w;
}

/// Folds one slice into a window.
void Append(Window* total, Window&& slice) {
  total->seconds += slice.seconds;
  total->wall_s += slice.wall_s;
  total->backlog_end = std::max(total->backlog_end, slice.backlog_end);
  total->layers.Add(slice.layers);
  total->outcomes.Add(slice.outcomes);
  total->latency_ms.insert(total->latency_ms.end(), slice.latency_ms.begin(),
                           slice.latency_ms.end());
  total->ok_in_window += slice.ok_in_window;
  for (Slot& s : slice.slots) total->slots.push_back(std::move(s));
}

/// Everything recorded about a serving window (see README.md).
std::string ServeRecord(const Window& w, int sessions) {
  std::vector<double> queue, infer, late;
  for (const Slot& s : w.slots) {
    late.push_back(MsBetween(s.due, s.sent));
    if (s.resp.kind != ResponseKind::kOk) continue;
    queue.push_back(s.resp.queue_ms);
    infer.push_back(s.resp.infer_ms);
  }
  const LayerDelta& d = w.layers;
  const Dist q = Summarize(queue), inf = Summarize(infer);
  const Dist l = Summarize(late), lat = Summarize(w.latency_ms);
  JsonObject o;
  o.Num("rate", w.rate)
      .Num("seconds", w.seconds)
      .Int("requests", static_cast<int64_t>(w.slots.size()))
      .Int("ok", w.outcomes.ok)
      .Int("failed", w.outcomes.failed_total())
      .Num("lat_p50_ms", lat.p50)
      .Num("lat_p90_ms", lat.p90)
      .Num("lat_p99_ms", lat.p99)
      .Num("lat_max_ms", lat.max)
      .Num("ok_per_s", Ratio(static_cast<double>(w.ok_in_window), w.seconds))
      .Num("serve.queue_ms.p50", q.p50)
      .Num("serve.queue_ms.p99", q.p99)
      .Num("serve.infer_ms.p50", inf.p50)
      .Num("serve.infer_ms.p99", inf.p99)
      .Num("serve.batch_size.mean", Ratio(d.Counter("serve.session_requests"),
                                          d.Counter("serve.batches")))
      .Num("serve.session_busy_frac", Ratio(d.busy_s, sessions * w.wall_s))
      .Num("serve.cache.hit_ratio",
           Ratio(d.Counter("serve.cache.hits"),
                 d.Counter("serve.cache.hits") +
                     d.Counter("serve.cache.misses")))
      .Num("serve.cache.fallbacks", d.Counter("serve.cache.fallbacks"))
      .Num("tensor.bufpool.hit_ratio",
           Ratio(d.Counter("tensor.bufpool.hits"),
                 d.Counter("tensor.bufpool.hits") +
                     d.Counter("tensor.bufpool.misses")))
      .Int("roadnet.dijkstra.lookups", d.row_lookups)
      .Num("bench.send_late_ms.p99", l.p99)
      .Num("bench.send_late_ms.max", l.max)
      .Int("bench.backlog_end", w.backlog_end);
  for (int f = 0; f < kFailureKinds; ++f) {
    o.Int(std::string("failed.") + FailureName(static_cast<Failure>(f)),
          w.outcomes.failed[static_cast<size_t>(f)]);
  }
  return o.str();
}

/// Per-layer metrics of a serving window, per answered request.
void ServeLayers(const Window& w, Values* layers) {
  const LayerDelta& d = w.layers;
  layers->Num("tensor.bufpool.hit_ratio",
              Ratio(d.Counter("tensor.bufpool.hits"),
                    d.Counter("tensor.bufpool.hits") +
                        d.Counter("tensor.bufpool.misses")));
  AddStageMetrics(d.stages, static_cast<double>(std::max<int64_t>(
                                1, w.outcomes.ok)),
                  d.busy_s, layers);
}

/// Adds each request of `w` as a span (submit -> ready) under `parent`.
void AddRequestSpans(SpanLog& log, const Window& w, int parent,
                     int64_t* next_trace) {
  if (!log.enabled()) return;
  for (const Slot& s : w.slots) {
    log.Add("request", log.ToNs(s.sent), log.ToNs(s.done), parent,
            (*next_trace)++);
  }
}

// ----- Quality ---------------------------------------------------------------

struct Quality {
  double f1 = 0.0;
  double mae_m = 0.0;
  int scored = 0;
};

Quality Evaluate(const Dataset& ds, const std::vector<MatchedTrajectory>& preds,
                 const std::vector<MatchedTrajectory>& truths, SpanLog& log,
                 int parent) {
  rntraj::RecoveryMetrics m;
  Timed(log, "EvaluateRecovery", parent,
        [&] { m = rntraj::EvaluateRecovery(ds.netdist(), preds, truths); });
  return {m.f1, m.mae, m.num_trajectories};
}

/// Scores the first ok answer per test sample of `w`.
Quality EvaluateServed(const Dataset& ds, const Window& w, SpanLog& log,
                       int parent) {
  std::vector<const MatchedTrajectory*> first(ds.test().size(), nullptr);
  for (const Slot& s : w.slots) {
    const auto i = static_cast<size_t>(s.sample);
    if (s.resp.kind == ResponseKind::kOk && first[i] == nullptr) {
      first[i] = &s.resp.recovered;
    }
  }
  std::vector<MatchedTrajectory> preds, truths;
  for (size_t i = 0; i < first.size(); ++i) {
    if (first[i] == nullptr) continue;
    preds.push_back(*first[i]);
    truths.push_back(ds.test()[i].truth);
  }
  return Evaluate(ds, preds, truths, log, parent);
}

// ----- Set-up ----------------------------------------------------------------

/// One fresh set-up's step times.
struct SetupTimes {
  double build_ms = 0.0;
  double init_ms = 0.0;
  double load_ms = 0.0;
  double begin_ms = 0.0;
  double start_ms = 0.0;
  double total_s = 0.0;
};

/// Fresh set-ups timed across the run: the first one's universe runs the
/// workload, the others are built, timed and dropped at the gaps between
/// phases. Reports the median of each step.
class SetupSampler {
 public:
  using SetupFn = std::function<void(SetupTimes*)>;
  SetupSampler(SetupFn once, int per_gap)
      : once_(std::move(once)), per_gap_(per_gap) {}

  void Record(const SetupTimes& t) { reps_.push_back(t); }
  /// Samples this sampler's share of fresh set-ups at a gap.
  void Gap() {
    for (int i = 0; i < per_gap_; ++i) {
      SetupTimes t;
      once_(&t);
      reps_.push_back(t);
    }
  }
  double Med(double SetupTimes::*field) const {
    std::vector<double> v;
    for (const SetupTimes& t : reps_) v.push_back(t.*field);
    return Median(std::move(v));
  }
  std::string RecordJson() const {
    return JsonObject()
        .Int("reps", static_cast<int64_t>(reps_.size()))
        .Num("setup_s", Med(&SetupTimes::total_s))
        .Num("sim.build_ms", Med(&SetupTimes::build_ms))
        .Num("core.model_init_ms", Med(&SetupTimes::init_ms))
        .Num("snapshot.load_ms", Med(&SetupTimes::load_ms))
        .Num("core.begin_inference_ms", Med(&SetupTimes::begin_ms))
        .Num("serve.start_ms", Med(&SetupTimes::start_ms))
        .str();
  }
  void AddLayers(Values* layers) const {
    layers->Num("sim.build_ms", Med(&SetupTimes::build_ms));
    layers->Num("core.model_init_ms", Med(&SetupTimes::init_ms));
  }

 private:
  SetupFn once_;
  int per_gap_;
  std::vector<SetupTimes> reps_;
};

/// A serving process's universe. Members are destroyed in reverse order:
/// the service stops before the model and dataset it reads.
struct ServingUniverse {
  std::unique_ptr<Dataset> ds;
  ModelContext ctx;
  std::unique_ptr<RnTrajRec> model;
  std::unique_ptr<RecoveryService> service;
};

/// Nothing to ready-to-serve, as a fleet worker pays it.
std::unique_ptr<ServingUniverse> SetUpServing(
    const rntraj::fleet::FleetProfile& profile,
    const RecoveryServiceConfig& cfg, const std::string& snapshot_path,
    SpanLog& log, int parent, SetupTimes* t) {
  auto u = std::make_unique<ServingUniverse>();
  const Clock::time_point t0 = Clock::now();
  const int span = log.Begin("setup", parent, 0);
  t->build_ms = Timed(log, "sim.BuildDataset", span,
                      [&] { u->ds = rntraj::BuildDataset(profile.dataset); });
  u->ctx = ModelContext::FromDataset(*u->ds);
  rntraj::SeedGlobalRng(kModelSeed);
  t->init_ms = Timed(log, "core.RnTrajRec", span, [&] {
    u->model = std::make_unique<RnTrajRec>(profile.model, u->ctx);
  });
  std::string error;
  bool loaded = false;
  t->load_ms = Timed(log, "snapshot.LoadSnapshot", span, [&] {
    loaded = u->model->LoadSnapshot(snapshot_path, &error);
  });
  if (!loaded) {
    std::fprintf(stderr, "perfbench: snapshot load failed: %s\n",
                 error.c_str());
    std::exit(2);
  }
  t->begin_ms = Timed(log, "core.BeginInference", span, [&] {
    u->model->SetTrainingMode(false);
    u->model->BeginInference();
  });
  t->start_ms = Timed(log, "serve.RecoveryService", span, [&] {
    u->service =
        std::make_unique<RecoveryService>(u->model.get(), u->ctx, cfg);
  });
  log.End(span);
  t->total_s = SecondsSince(t0);
  return u;
}

/// Writes the serving snapshot once, untimed, from the seeded model after
/// BeginInference, so it carries the warm road representation.
void WriteSeededSnapshot(const rntraj::fleet::FleetProfile& profile,
                         const std::string& path) {
  auto ds = rntraj::BuildDataset(profile.dataset);
  const ModelContext ctx = ModelContext::FromDataset(*ds);
  rntraj::SeedGlobalRng(kModelSeed);
  RnTrajRec model(profile.model, ctx);
  model.SetTrainingMode(false);
  model.BeginInference();
  std::string error;
  if (!model.SaveSnapshot(path, &error)) {
    std::fprintf(stderr, "perfbench: snapshot write failed: %s\n",
                 error.c_str());
    std::exit(2);
  }
}

RecoveryServiceConfig ServiceConfig(const rntraj::fleet::FleetProfile& p,
                                    bool traced) {
  RecoveryServiceConfig cfg = p.service;
  cfg.num_sessions = kServeSessions;
  if (traced) {
    cfg.trace.sample_rate = 1.0;
    cfg.profile_stages = true;
  }
  return cfg;
}

// ----- Results ---------------------------------------------------------------

/// What one pass of a workload measured.
struct Result {
  Outcomes outcomes;
  bool correct = true;
  std::string problems;  ///< Why correct is false.
  Values e2e;            ///< End-to-end metrics.
  Values layers;         ///< Per-layer metrics.
  JsonObject record;     ///< Everything else, under per-workload names.
  double overhead_basis = 0.0;  ///< Time-like figure tracing overhead uses.

  void Problem(const std::string& why) {
    correct = false;
    if (!problems.empty()) problems += "; ";
    problems += why;
  }
};

/// Compares a fixed subset of served answers with RecoverNow on the same
/// service; each mismatch is a failed wrong_answer.
Outcomes CheckAnswers(RecoveryService& svc,
                      const std::vector<RecoveryRequest>& pool,
                      const std::vector<const Window*>& windows, SpanLog& log,
                      int parent, Result* result) {
  Outcomes out;
  const int span = log.Begin("answer_check", parent, 0);
  const int k = std::min<int>(kCheckSamples, static_cast<int>(pool.size()));
  for (int sample = 0; sample < k; ++sample) {
    RecoveryResponse ref;
    Timed(log, "serve.RecoverNow", span,
          [&] { ref = svc.RecoverNow(pool[static_cast<size_t>(sample)]); });
    for (const Window* w : windows) {
      const Slot* served = nullptr;
      for (const Slot& s : w->slots) {
        if (s.sample == sample && s.resp.kind == ResponseKind::kOk) {
          served = &s;
          break;
        }
      }
      if (served == nullptr) continue;  // never answered ok: counted there
      std::string why = "RecoverNow failed";
      if (ref.kind == ResponseKind::kOk &&
          AnswerMatches(served->resp.recovered, ref.recovered, kRatioTol,
                        &why)) {
        out.Ok();
      } else {
        out.Fail(Failure::kWrongAnswer);
        result->Problem(w->name + " sample " + std::to_string(sample) + ": " +
                        why);
      }
    }
  }
  log.End(span);
  return out;
}

// ----- Workloads -------------------------------------------------------------

/// online_small: bench-small universe, 2 sessions, open loop. Phases:
/// untimed warm-up, 200 req/s window, 600 req/s window, goodput search
/// (skipped in the traced pass, which reports layers only).
Result RunOnline(const Args& args, bool traced, SpanLog& log,
                 const std::string& snap_path) {
  Result r;
  const auto profile = Profile("bench-small");
  const RecoveryServiceConfig cfg = ServiceConfig(profile, traced);
  const int root =
      log.Begin(traced ? "online_small.traced" : "online_small", -1, 0);
  SetupSampler setup(
      [&](SetupTimes* t) {
        SetUpServing(profile, cfg, snap_path, log, root, t);
      },
      kServingSetupsPerGap);
  SetupTimes first;
  const auto u = SetUpServing(profile, cfg, snap_path, log, root, &first);
  setup.Record(first);
  const Dataset& ds = *u->ds;
  RecoveryService& svc = *u->service;
  const auto pool = RequestPool(ds, kOnlineDeadlineMs);
  RequestOrder order(static_cast<int>(pool.size()), args.seed);
  int64_t next_trace = 1;
  const double s = args.seconds;

  // One phase: `slices` open-loop windows at `rate` with fresh set-ups
  // sampled before each.
  const auto phase = [&](const char* name, double rate, double seconds,
                         int slices) {
    const int span = log.Begin(std::string("window.") + name, root, 0);
    Window total;
    total.name = name;
    total.rate = rate;
    for (int i = 0; i < slices; ++i) {
      setup.Gap();
      Append(&total, RunOpenLoop(svc, ds, pool, order, name, rate,
                                 seconds / slices));
    }
    log.End(span);
    AddRequestSpans(log, total, span, &next_trace);
    return total;
  };
  const Window warm = phase("warmup", kWarmupRate,
                            std::max(kMinWarmupS, kOnlineWarmupShare * s),
                            /*slices=*/1);
  const Window low =
      phase("low", kLowRate, kOnlineLowShare * s, kOnlineLowSlices);
  const Window high =
      phase("high", kHighRate, kOnlineHighShare * s, kOnlineHighSlices);

  const auto verdict = [](const Window& w) {
    return WindowVerdict{Ratio(static_cast<double>(w.outcomes.ok),
                               static_cast<double>(w.outcomes.attempted)),
                         Summarize(w.latency_ms).p99, w.backlog_end};
  };
  double goodput = 0.0;
  std::string probes = "[";
  if (!traced &&
      MeetsGoodput(verdict(high), kHighRate, kLatencyLimitMs, kMinOkShare)) {
    const auto probe = [&](double rate) {
      setup.Gap();
      const double secs = std::max(kProbeShare * s, kProbeMinRequests / rate);
      const Window w = RunOpenLoop(svc, ds, pool, order, "probe", rate, secs);
      const WindowVerdict v = verdict(w);
      const bool pass = MeetsGoodput(v, rate, kLatencyLimitMs, kMinOkShare);
      probes += std::string(probes.size() > 1 ? ", " : "") +
                JsonObject()
                    .Num("rate", rate)
                    .Bool("pass", pass)
                    .Int("requests", w.outcomes.attempted)
                    .Num("ok_share", v.ok_share)
                    .Num("p99_ms", v.p99_ms)
                    .Int("backlog_end", v.backlog_end)
                    .str();
      return pass;
    };
    goodput =
        BisectGoodput(kHighRate, kGoodputHi, kGoodputResolution, probe);
  }
  probes += "]";
  setup.Gap();

  const Outcomes checked =
      CheckAnswers(svc, pool, {&low, &high}, log, root, &r);
  r.outcomes.Add(low.outcomes);
  r.outcomes.Add(high.outcomes);
  r.outcomes.Add(checked);
  const Quality q = EvaluateServed(ds, low, log, root);
  log.End(root);

  const Dist lat = Summarize(low.latency_ms);
  const Dist hlat = Summarize(high.latency_ms);
  r.e2e.Num("setup_s", setup.Med(&SetupTimes::total_s))
      .Num("goodput_per_s", goodput)
      .Num("lat_p50_ms", lat.p50)
      .Num("lat_p90_ms", lat.p90)
      .Num("recovery_f1", q.f1)
      .Num("recovery_mae_m", q.mae_m);
  r.overhead_basis = lat.p50;
  setup.AddLayers(&r.layers);
  r.layers.Num("core.begin_inference_ms", setup.Med(&SetupTimes::begin_ms));
  ServeLayers(low, &r.layers);

  r.record.Raw("setup", setup.RecordJson())
      .Num("lat_p50_ms.low", lat.p50)
      .Num("lat_p90_ms.low", lat.p90)
      .Num("lat_p99_ms.low", lat.p99)
      .Num("lat_p50_ms.high", hlat.p50)
      .Num("lat_p99_ms.high", hlat.p99)
      .Num("goodput_rps", goodput)
      .Raw("goodput_probes", probes)
      .Int("quality.scored", q.scored)
      .Raw("window.warmup", ServeRecord(warm, kServeSessions))
      .Raw("window.low", ServeRecord(low, kServeSessions))
      .Raw("window.high", ServeRecord(high, kServeSessions))
      .Int("answer_check.compared", checked.attempted);
  return r;
}

/// bulk_full: bench-full universe, 2 sessions, closed loop with 64 requests
/// in flight, first untimed then timed.
Result RunBulk(const Args& args, bool traced, SpanLog& log,
               const std::string& snap_path) {
  Result r;
  const auto profile = Profile("bench-full");
  const RecoveryServiceConfig cfg = ServiceConfig(profile, traced);
  const int root = log.Begin(traced ? "bulk_full.traced" : "bulk_full", -1, 0);
  SetupSampler setup(
      [&](SetupTimes* t) {
        SetUpServing(profile, cfg, snap_path, log, root, t);
      },
      kBulkSetupsPerGap);
  SetupTimes first;
  const auto u = SetUpServing(profile, cfg, snap_path, log, root, &first);
  setup.Record(first);
  const Dataset& ds = *u->ds;
  RecoveryService& svc = *u->service;
  const auto pool = RequestPool(ds, kBulkDeadlineMs);
  RequestOrder order(static_cast<int>(pool.size()), args.seed);
  int64_t next_trace = 1;

  const int warm_span = log.Begin("window.warmup", root, 0);
  const Window warm = RunClosedLoop(
      svc, ds, pool, order, "warmup", kBulkInFlight,
      std::max(kMinWarmupS, kBulkWarmupShare * args.seconds));
  log.End(warm_span);
  const int span = log.Begin("window.bulk", root, 0);
  Window w;
  w.name = "bulk";
  for (int i = 0; i < kBulkSlices; ++i) {
    setup.Gap();
    Append(&w, RunClosedLoop(svc, ds, pool, order, "bulk", kBulkInFlight,
                             args.seconds / kBulkSlices));
  }
  log.End(span);
  AddRequestSpans(log, w, span, &next_trace);
  setup.Gap();

  const Outcomes checked = CheckAnswers(svc, pool, {&w}, log, root, &r);
  r.outcomes.Add(w.outcomes);
  r.outcomes.Add(checked);
  const Quality q = EvaluateServed(ds, w, log, root);
  log.End(root);

  const Dist lat = Summarize(w.latency_ms);
  const double tput = Ratio(static_cast<double>(w.ok_in_window), w.seconds);
  r.e2e.Num("setup_s", setup.Med(&SetupTimes::total_s))
      .Num("goodput_per_s", tput)
      .Num("lat_p50_ms", lat.p50)
      .Num("lat_p90_ms", lat.p90)
      .Num("recovery_f1", q.f1)
      .Num("recovery_mae_m", q.mae_m);
  r.overhead_basis = Ratio(1.0, tput);
  setup.AddLayers(&r.layers);
  r.layers.Num("core.begin_inference_ms", setup.Med(&SetupTimes::begin_ms));
  ServeLayers(w, &r.layers);

  r.record.Raw("setup", setup.RecordJson())
      .Num("bulk_traj_per_s", tput)
      .Num("warmup_traj_per_s",
           Ratio(static_cast<double>(warm.ok_in_window), warm.seconds))
      .Int("quality.scored", q.scored)
      .Raw("window.bulk", ServeRecord(w, kServeSessions))
      .Int("answer_check.compared", checked.attempted);
  return r;
}

/// Forwards every call to the wrapped model and stamps each optimiser step:
/// TrainModel calls BeginBatch exactly once per step, so the gaps between
/// consecutive calls (and from the last call to TrainModel's return) are
/// the step latencies, observed at the public model interface.
class StepClock : public rntraj::RecoveryModel {
 public:
  explicit StepClock(RnTrajRec* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::vector<rntraj::Tensor> Parameters() override {
    return inner_->Parameters();
  }
  rntraj::StateDict StateDict() override { return inner_->StateDict(); }
  rntraj::LoadReport LoadStateDict(const rntraj::StateDict& src) override {
    return inner_->LoadStateDict(src);
  }
  bool SaveSnapshot(const std::string& path, std::string* error) override {
    return inner_->SaveSnapshot(path, error);
  }
  bool LoadSnapshot(const std::string& path, std::string* error) override {
    return inner_->LoadSnapshot(path, error);
  }
  uint64_t TrainingSteps() const override { return inner_->TrainingSteps(); }
  void SetTrainingSteps(uint64_t steps) override {
    inner_->SetTrainingSteps(steps);
  }
  bool IsLearned() const override { return inner_->IsLearned(); }
  void BeginBatch() override {
    steps_.push_back(Clock::now());
    inner_->BeginBatch();
  }
  rntraj::Tensor TrainLoss(const rntraj::TrajectorySample& s) override {
    return inner_->TrainLoss(s);
  }
  bool SupportsBatchedForward() const override {
    return inner_->SupportsBatchedForward();
  }
  std::vector<rntraj::Tensor> TrainLossBatch(
      const std::vector<const rntraj::TrajectorySample*>& samples) override {
    return inner_->TrainLossBatch(samples);
  }
  bool SupportsConcurrentTrainLoss() const override {
    return inner_->SupportsConcurrentTrainLoss();
  }
  bool SupportsConcurrentRecover() const override {
    return inner_->SupportsConcurrentRecover();
  }
  void SetSegmentQuerySource(
      const rntraj::SegmentQuerySource* source) override {
    inner_->SetSegmentQuerySource(source);
  }
  void BeginInference() override { inner_->BeginInference(); }
  MatchedTrajectory Recover(const rntraj::TrajectorySample& s) override {
    return inner_->Recover(s);
  }
  std::vector<MatchedTrajectory> RecoverBatch(
      const std::vector<const rntraj::TrajectorySample*>& samples) override {
    return inner_->RecoverBatch(samples);
  }
  void SetTrainingMode(bool training) override {
    inner_->SetTrainingMode(training);
  }
  void SetTeacherForcing(double prob) override {
    inner_->SetTeacherForcing(prob);
  }

  /// Step latencies in ms, given when the run returned.
  std::vector<double> StepMs(Clock::time_point returned) const {
    std::vector<double> out;
    for (size_t i = 0; i < steps_.size(); ++i) {
      out.push_back(MsBetween(
          steps_[i], i + 1 < steps_.size() ? steps_[i + 1] : returned));
    }
    return out;
  }

 private:
  RnTrajRec* inner_;
  std::vector<Clock::time_point> steps_;
};

/// train_small: bench-small dataset and model; the fixed schedule
/// (TrainModel, epochs 4, batch 8, fixed seed) from a fresh seeded model,
/// repeated for the window after one untimed warm-up epoch; then an untimed
/// evaluation of the last trained model.
Result RunTrain(const Args& args, bool traced, SpanLog& log) {
  Result r;
  const auto profile = Profile("bench-small");
  const int root =
      log.Begin(traced ? "train_small.traced" : "train_small", -1, 0);
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<RnTrajRec> model;
  const auto set_up = [&](SetupTimes* t) {
    const Clock::time_point t0 = Clock::now();
    const int span = log.Begin("setup", root, 0);
    t->build_ms = Timed(log, "sim.BuildDataset", span,
                        [&] { ds = rntraj::BuildDataset(profile.dataset); });
    const ModelContext ctx = ModelContext::FromDataset(*ds);
    rntraj::SeedGlobalRng(kModelSeed);
    t->init_ms = Timed(log, "core.RnTrajRec", span, [&] {
      model = std::make_unique<RnTrajRec>(profile.model, ctx);
    });
    log.End(span);
    t->total_s = SecondsSince(t0);
  };
  SetupTimes first;
  set_up(&first);
  std::unique_ptr<Dataset> kept_ds = std::move(ds);
  model.reset();
  SetupSampler setup(
      [&](SetupTimes* t) {
        set_up(t);
        model.reset();
        ds.reset();
      },
      kTrainSetupsPerGap);
  setup.Record(first);
  const Dataset& data = *kept_ds;
  const ModelContext ctx = ModelContext::FromDataset(data);

  rntraj::TrainConfig tc;
  tc.epochs = kTrainEpochs;
  tc.batch_size = kTrainBatch;
  tc.seed = kTrainSeed;
  tc.profile_stages = traced;
  const auto fresh_model = [&] {
    rntraj::SeedGlobalRng(kModelSeed);
    return std::make_unique<RnTrajRec>(profile.model, ctx);
  };

  {
    const int span = log.Begin("warmup", root, 0);
    auto warm = fresh_model();
    rntraj::TrainConfig wc = tc;
    wc.epochs = kTrainWarmupEpochs;
    rntraj::TrainModel(*warm, data.train(), wc);
    log.End(span);
  }
  setup.Gap();

  const int64_t samples_per_run = static_cast<int64_t>(kTrainEpochs) *
                                  static_cast<int64_t>(data.train().size());
  std::vector<double> rates, step_ms, losses, pass_p50, pass_p99;
  std::unique_ptr<RnTrajRec> trained;
  LayerDelta layers;
  double train_s = 0.0;
  const Clock::time_point window_start = Clock::now();
  do {
    trained = fresh_model();
    StepClock clock(trained.get());
    const int span = log.Begin("TrainModel", root, 0);
    const LayerSnap before = TakeSnap(nullptr, data.netdist());
    const rntraj::TrainStats stats =
        rntraj::TrainModel(clock, data.train(), tc);
    const Clock::time_point returned = Clock::now();
    layers.Add(Diff(before, TakeSnap(nullptr, data.netdist())));
    log.End(span);
    const std::vector<double> steps = clock.StepMs(returned);
    step_ms.insert(step_ms.end(), steps.begin(), steps.end());
    const Dist pass_steps = Summarize(steps);
    pass_p50.push_back(pass_steps.p50);
    pass_p99.push_back(pass_steps.p99);
    train_s += stats.seconds;
    rates.push_back(static_cast<double>(samples_per_run) / stats.seconds);
    losses.push_back(stats.epoch_losses.empty() ? NAN
                                                : stats.epoch_losses.back());
    if (std::isfinite(losses.back())) {
      r.outcomes.Ok();
    } else {
      r.outcomes.Fail(Failure::kInternalError);
      r.Problem("non-finite training loss");
    }
    setup.Gap();
    // Stop before a further run would overshoot the window.
  } while (SecondsSince(window_start) +
               SecondsSince(window_start) / static_cast<double>(rates.size()) <=
           args.seconds);

  // Untimed evaluation of the last trained model.
  const double begin_ms = Timed(log, "core.BeginInference", root, [&] {
    trained->SetTrainingMode(false);
    trained->BeginInference();
  });
  std::vector<MatchedTrajectory> preds;
  const double eval_ms = Timed(log, "RecoverAll", root, [&] {
    preds = rntraj::RecoverAll(*trained, data.test());
  });
  const int segs = data.roadnet().num_segments();
  for (size_t i = 0; i < preds.size(); ++i) {
    if (WellFormed(preds[i], data.test()[i].truth.points.size(), segs)) {
      r.outcomes.Ok();
    } else {
      r.outcomes.Fail(Failure::kWrongAnswer);
      r.Problem("malformed RecoverAll answer for test sample " +
                std::to_string(i));
    }
  }
  const Quality q =
      Evaluate(data, preds, rntraj::TruthsOf(data.test()), log, root);
  log.End(root);

  // The box alternates between fast and slow spells, so the pass rate and
  // step median come from the fastest pass (the noise-floor estimator); the
  // step p90 pools every pass, so slow steps anywhere count. The record
  // keeps every pass.
  const size_t best = static_cast<size_t>(
      std::max_element(rates.begin(), rates.end()) - rates.begin());
  const Dist steps = Summarize(step_ms);
  const double rate = rates[best];
  bool losses_identical = true;
  for (double l : losses) losses_identical &= (l == losses.front());

  r.e2e.Num("setup_s", setup.Med(&SetupTimes::total_s))
      .Num("goodput_per_s", rate)
      .Num("lat_p50_ms", pass_p50[best])
      .Num("lat_p90_ms", steps.p90)
      .Num("recovery_f1", q.f1)
      .Num("recovery_mae_m", q.mae_m);
  r.overhead_basis = Ratio(1.0, rate);
  setup.AddLayers(&r.layers);
  r.layers.Num("core.begin_inference_ms", begin_ms);
  r.layers.Num("tensor.bufpool.hit_ratio",
               Ratio(static_cast<double>(layers.pool_hits),
                     static_cast<double>(layers.pool_hits +
                                         layers.pool_misses)));
  AddStageMetrics(layers.stages,
                  static_cast<double>(samples_per_run) *
                      static_cast<double>(rates.size()),
                  train_s, &r.layers);

  r.record.Raw("setup", setup.RecordJson())
      .Num("train_samples_per_s", rate)
      .Num("train_loss", losses.back())
      .Bool("train_loss.identical_across_runs", losses_identical)
      .Int("train.runs", static_cast<int64_t>(rates.size()))
      .Raw("train.samples_per_s.runs", JsonArray(rates))
      .Raw("train.step_ms.p50.runs", JsonArray(pass_p50))
      .Raw("train.step_ms.p99.runs", JsonArray(pass_p99))
      .Int("train.steps", steps.n)
      .Num("train.step_ms", pass_p50[best])
      .Num("train.step_ms.p90", steps.p90)
      .Num("train.step_ms.p99", steps.p99)
      .Num("train_samples_per_s.median", Median(rates))
      .Num("train.eval_ms", eval_ms)
      .Int("roadnet.dijkstra.lookups", layers.row_lookups)
      .Int("quality.scored", q.scored);
  return r;
}

Result RunWorkload(const Args& args, bool traced, SpanLog& log) {
  if (args.workload == "train_small") return RunTrain(args, traced, log);
  const bool online = args.workload == "online_small";
  const auto profile = Profile(online ? "bench-small" : "bench-full");
  const std::string snap = args.out_dir + "/" + args.workload + ".snapshot";
  WriteSeededSnapshot(profile, snap);
  return online ? RunOnline(args, traced, log, snap)
                : RunBulk(args, traced, log, snap);
}

std::string Fingerprint(const Args& args) {
  return JsonObject()
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Int("usable_cpus", UsableCpus())
      .Str("cpu_model", CpuModel())
      .Str("compiler", "g++ " __VERSION__)
      .Str("build_flags", PB_BUILD_FLAGS)
      .Str("git_sha", args.git_sha)
      .Int("seed", static_cast<int64_t>(args.seed))
      .str();
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          "-trace" + (args.trace ? "1" : "0");

  // End-to-end metrics always come from an untraced pass. A traced run adds
  // a second pass on a fresh universe with tracing on: it supplies the
  // per-layer metrics and, against the untraced pass, the tracing overhead.
  SpanLog no_spans(false);
  Result plain = RunWorkload(args, /*traced=*/false, no_spans);
  plain.e2e.Num("peak_rss_mb", PeakRssMb());

  JsonObject record;
  record.Str("workload", args.workload)
      .Raw("fingerprint", Fingerprint(args))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Raw("end_to_end", plain.e2e.str())
      .Raw("detail", plain.record.str());

  Result traced;
  if (args.trace) {
    // Per-layer figures carry no bound, so the traced pass measures half
    // as long; the overhead compares per-request or per-sample figures.
    Args traced_args = args;
    traced_args.seconds = 0.5 * args.seconds;
    SpanLog log(true);
    traced = RunWorkload(traced_args, /*traced=*/true, log);
    traced.layers.Num(
        "trace.overhead_frac",
        Ratio(traced.overhead_basis, plain.overhead_basis) - 1.0);
    const std::string span_path = args.out_dir + "/spans-" + tag + ".json";
    std::ofstream(span_path) << SpansToJson(log.spans());
    record.Raw("per_layer", traced.layers.str())
        .Raw("traced_detail", traced.record.str())
        .Str("span_file", span_path);
    if (!traced.correct) plain.Problem("traced pass: " + traced.problems);
    plain.outcomes.Add(traced.outcomes);
  }
  if (!plain.outcomes.Balanced()) plain.Problem("outcome counts do not add up");

  // The result line: the untraced pass's end-to-end metrics, or the traced
  // pass's per-layer metrics.
  const std::vector<MetricSpec>& specs = args.trace ? kPerLayer : kEndToEnd;
  const Values& values = args.trace ? traced.layers : plain.e2e;
  JsonObject metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = values.v.find(spec.name);
    if (it == values.v.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      return 3;
    }
    metrics.Raw(spec.name, JsonObject()
                               .Num("value", it->second)
                               .Str("unit", spec.unit)
                               .str());
  }

  JsonObject failures;
  for (int f = 0; f < kFailureKinds; ++f) {
    failures.Int(FailureName(static_cast<Failure>(f)),
                 plain.outcomes.failed[static_cast<size_t>(f)]);
  }
  record.Int("attempted", plain.outcomes.attempted)
      .Int("ok", plain.outcomes.ok)
      .Raw("failed", failures.str())
      .Bool("correct", plain.correct)
      .Str("problems", plain.problems);
  const std::string record_json = record.str();
  std::ofstream(args.out_dir + "/record-" + tag + ".json")
      << record_json << "\n";
  std::printf("record: %s\n", record_json.c_str());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", plain.correct)
                          .Int("attempted", plain.outcomes.attempted)
                          .Int("failed", plain.outcomes.failed_total())
                          .Raw("metrics", metrics.str())
                          .str()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
