// hetm_bench: the repository's benchmark program. One process runs one named
// workload:
//
//   hetm_bench --workload W --seed S [--seconds T] [--scale full|smoke]
//              [--out FILE] [--trace-out FILE]
//
// and prints every metric by name with its unit (the sample count beside
// every percentile), checks that the simulated programs produced the right
// output, and writes the report as JSON to --out.
//
// Two clocks. Metrics named sim_* (and per-layer metrics in ms_sim / us_sim /
// s_sim units) come from the simulator's cost model: for a given seed they are
// bit-identical run to run. Metrics named host_*, setup_s and the per-layer
// host timings measure this process on its own machine and are noisy, so each
// summarises many repetitions, measured with the tracer off.
//
// Without --trace-out only the end-to-end metrics are computed. With it the
// program runs a traced pass after the timed one: the workload again with the
// tracer on (the simulated numbers must come out identical), the per-layer
// metrics, the layer microbenchmarks on the workload's own templates, and
// its own spans around every public call, written to --trace-out as
// Chrome trace JSON.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hetm_bench/host_clock.h"
#include "hetm_bench/programs.h"
#include "src/compiler/compiler.h"
#include "src/conv/plan.h"
#include "src/dir/directory.h"
#include "src/emerald/system.h"
#include "src/mobility/ar_codec.h"
#include "src/mobility/busstop_xlate.h"
#include "src/mobility/object_codec.h"
#include "src/net/fault_plan.h"
#include "src/obs/metrics.h"
#include "src/sim/traffic.h"

namespace hetm::bench {
namespace {

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

constexpr uint64_t kMaxEvents = 4'000'000'000ull;
constexpr int kMinReps = 3;
constexpr int kTracedReps = 3;
// A traffic world still busy this long after its last arrival was due has
// stopped draining; healthy runs drain within a fraction of a second.
constexpr double kMaxDrainLagMs = 60'000.0;

// Everything needed to build, run and check one simulated world.
struct WorldSpec {
  std::string source;
  std::string expect;  // the program's correct output
  std::vector<MachineModel> machines;
  std::vector<OptLevel> opts;  // per node; empty = all O0
  ConversionStrategy strategy = ConversionStrategy::kNaive;
  bool net = false;
  NetConfig net_config;
  bool dir = false;
  bool sched = false;
  bool traffic = false;
  TrafficConfig traffic_config;
  uint64_t ops = 0;  // operations the world performs (moves, arrivals, invocations)
  uint64_t max_events = kMaxEvents;
};

// The generator's own draw discipline (src/sim/traffic.cc): five variates per
// arrival, the third deciding move or invoke, the fifth the exponential gap.
// Replaying it gives exact denominators and the due time of every arrival.
struct ArrivalPlan {
  uint64_t invokes = 0;
  uint64_t moves = 0;
  double last_due_us = 0.0;
};

ArrivalPlan ReplayArrivals(const TrafficConfig& c) {
  ArrivalPlan plan;
  NetRng rng(c.seed);
  double rate_per_us = c.arrival_per_s / 1e6;  // no diurnal swing in any workload
  double t = c.start_us;
  for (uint64_t k = 0; k < c.max_arrivals; ++k) {
    rng.NextDouble();  // client
    rng.NextDouble();  // object
    double u_kind = rng.NextDouble();
    rng.NextDouble();  // destination
    double u_gap = rng.NextDouble();
    (u_kind < c.move_fraction ? plan.moves : plan.invokes) += 1;
    plan.last_due_us = t;
    t = t + -std::log(1.0 - u_gap) / rate_per_us;
  }
  return plan;
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 1469598103934665603ull;

template <typename T>
uint64_t FnvValue(uint64_t h, const T& v) {
  return Fnv(h, &v, sizeof(v));
}

// Digest of a world's simulated outcome: output, makespan, every counter and
// every non-phase histogram's population and sum. Phase histograms exist only
// when the tracer is on, so they are left out; everything else must match
// between a traced and an untraced run of the same seed.
uint64_t SimFingerprint(const std::string& output, double makespan_us,
                        const MetricsRegistry& m) {
  uint64_t h = Fnv(kFnvBasis, output.data(), output.size());
  h = FnvValue(h, makespan_us);
  for (const auto& [name, v] : m.counters()) {
    h = Fnv(h, name.data(), name.size());
    h = FnvValue(h, v);
  }
  for (const auto& [name, hist] : m.histograms()) {
    if (name.rfind("phase.", 0) == 0) {
      continue;
    }
    h = Fnv(h, name.data(), name.size());
    h = FnvValue(h, hist.count());
    h = FnvValue(h, hist.sum());
  }
  return h;
}

struct WorldOutcome {
  HostTime run;
  bool correct = true;
  std::string why;  // first correctness failure
  uint64_t ops = 0;
  uint64_t failed = 0;
  double makespan_us = 0.0;
  double drain_lag_ms = 0.0;
  uint64_t fingerprint = kFnvBasis;
  uint64_t trace_digest = kFnvBasis;
  uint64_t trace_events = 0;
  MetricsRegistry metrics;
};

// Compile, world, fleet: everything before World::Run.
std::unique_ptr<EmeraldSystem> SetUp(const WorldSpec& w, bool traced, SpanRecorder& spans) {
  auto sys = std::make_unique<EmeraldSystem>(w.strategy);
  World& world = sys->world();
  world.tracer().set_enabled(traced);
  {
    auto span = spans.Open("setup.compile");
    bool loaded = sys->Load(w.source);
    HETM_CHECK_MSG(loaded, "benchmark program failed to compile");
  }
  {
    auto span = spans.Open("setup.world");
    for (size_t i = 0; i < w.machines.size(); ++i) {
      sys->AddNode(w.machines[i], w.opts.empty() ? OptLevel::kO0 : w.opts[i]);
    }
    if (w.net) {
      world.EnableNet(w.net_config);
    }
    if (w.dir) {
      world.EnableDir(DirConfig{});
    }
    if (w.sched) {
      world.EnableSched(SchedConfig{});
    }
  }
  {
    auto span = spans.Open("setup.populate");
    if (w.traffic) {
      world.EnableTraffic(w.traffic_config);
    }
    world.Boot(0);
  }
  return sys;
}

// Correctness and failures. Every op counts as failed when the run errs, the
// output is wrong or an invariant breaks; otherwise the failures are aborted
// moves plus generated invocations that never executed.
void Check(const WorldSpec& w, EmeraldSystem& sys, bool ran, WorldOutcome* o) {
  World& world = sys.world();
  const MetricsRegistry& m = o->metrics;
  std::string why;
  if (!ran) {
    why = "run failed: " + world.error();
  } else if (sys.output() != w.expect) {
    why = "wrong output: " + sys.output().substr(0, 80);
  } else if (std::string inv = world.CheckInvariants(); !inv.empty()) {
    why = "invariant violated: " + inv.substr(0, inv.find('\n'));
  }
  o->failed = m.counter("total.moves_aborted");
  if (w.traffic) {
    ArrivalPlan plan = ReplayArrivals(w.traffic_config);
    const LogHistogram* h = m.FindHistogram("traffic.route_latency_us");
    uint64_t executed = h != nullptr ? h->count() : 0;
    if (executed > plan.invokes && why.empty()) {
      why = "an invocation executed twice";
    }
    o->failed += plan.invokes > executed ? plan.invokes - executed : 0;
    o->drain_lag_ms = (o->makespan_us - plan.last_due_us) / 1000.0;
    if (o->drain_lag_ms > kMaxDrainLagMs && why.empty()) {
      why = "the world did not drain after the last arrival";
    }
  }
  if (!why.empty()) {
    o->correct = false;
    o->why = why;
    o->failed = o->ops;
  }
}

WorldOutcome RunWorld(const WorldSpec& w, bool traced, SpanRecorder& spans) {
  WorldOutcome o;
  o.ops = w.ops;
  std::unique_ptr<EmeraldSystem> sys = SetUp(w, traced, spans);
  World& world = sys->world();
  bool ran = false;
  {
    auto span = spans.Open("run");
    HostTimer run;
    ran = world.Run(w.max_events);
    o.run = run.Elapsed();
  }
  {
    auto span = spans.Open("export");
    world.ExportMetrics();
    o.metrics = world.metrics();
  }
  {
    auto span = spans.Open("check");
    o.makespan_us = world.NowMaxUs();
    Check(w, *sys, ran, &o);
  }
  o.fingerprint = SimFingerprint(sys->output(), o.makespan_us, o.metrics);
  o.trace_digest = world.tracer().digest();
  o.trace_events = world.tracer().emitted();
  return o;
}

// One repetition: every world of the workload's unit of work, in order.
struct Rep {
  HostTime run;
  bool correct = true;
  std::string why;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double makespan_us = 0.0;
  uint64_t fingerprint = kFnvBasis;
  uint64_t trace_digest = kFnvBasis;
  uint64_t trace_events = 0;
  double drain_lag_ms = 0.0;  // the latest-draining world's
  MetricsRegistry metrics;    // every world's registry merged (counters add)
};

Rep RunRep(const std::vector<WorldSpec>& specs, bool traced, SpanRecorder& spans) {
  Rep rep;
  for (const WorldSpec& w : specs) {
    WorldOutcome o = RunWorld(w, traced, spans);
    rep.run.real_s += o.run.real_s;
    rep.run.cpu_s += o.run.cpu_s;
    if (!o.correct && rep.correct) {
      rep.correct = false;
      rep.why = o.why;
    }
    rep.ops += o.ops;
    rep.failed += o.failed;
    rep.makespan_us += o.makespan_us;
    rep.fingerprint = FnvValue(rep.fingerprint, o.fingerprint);
    rep.trace_digest = FnvValue(rep.trace_digest, o.trace_digest);
    rep.trace_events += o.trace_events;
    rep.drain_lag_ms = std::max(rep.drain_lag_ms, o.drain_lag_ms);
    rep.metrics.Merge(o.metrics);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool sim = false;  // simulated clock (bit-identical per seed) or host clock
  std::string note;  // sample count, quartiles
};

struct Report {
  void EndToEnd(const std::string& name, const std::string& unit, double value,
                const std::string& note = "") {
    Push(end_to_end, name, unit, value, false, note);
  }
  // Per-layer metrics on the simulated and on the host clock.
  void Sim(const std::string& name, const std::string& unit, double value,
           const std::string& note = "") {
    Push(per_layer, name, unit, value, true, note);
  }
  void Host(const std::string& name, const std::string& unit, double value,
            const std::string& note = "") {
    Push(per_layer, name, unit, value, false, note);
  }
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

 private:
  static void Push(std::vector<Metric>& into, const std::string& name,
                   const std::string& unit, double value, bool sim,
                   const std::string& note) {
    into.push_back({name, unit, std::isfinite(value) ? value : 0.0, sim, note});
  }
};

std::string Fmt(const char* fmt, double a, double b = 0.0) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The p-th percentile of `h`, or 0 when fewer than ten samples lie beyond it:
// a percentile is only reported where the sample can resolve it.
double Resolved(const LogHistogram* h, double p) {
  if (h == nullptr || static_cast<double>(h->count()) * (100.0 - p) / 100.0 < 10.0) {
    return 0.0;
  }
  return h->Percentile(p);
}

// A latency histogram (µs) as three per-layer metrics: p50 and p99 in ms_sim
// or us_sim, and the sample count they stand on.
void AddPercentiles(Report& r, const MetricsRegistry& m, const std::string& hist,
                    const std::string& p50, const std::string& p99, const std::string& n,
                    bool in_ms) {
  const LogHistogram* h = m.FindHistogram(hist);
  double scale = in_ms ? 1e-3 : 1.0;
  const char* unit = in_ms ? "ms_sim" : "us_sim";
  uint64_t count = h != nullptr ? h->count() : 0;
  std::string note = "n=" + std::to_string(count);
  r.Sim(p50, unit, Resolved(h, 50.0) * scale, note);
  r.Sim(p99, unit, Resolved(h, 99.0) * scale, note);
  r.Sim(n, "count", static_cast<double>(count));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Scale { kFull, kSmoke };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  Scale scale = Scale::kFull;
  std::string out;
  std::string trace_out;
};

std::vector<MachineModel> Cycle(int nodes) {
  const std::vector<MachineModel> six = AllTable1Machines();
  std::vector<MachineModel> v;
  for (int i = 0; i < nodes; ++i) {
    v.push_back(six[i % six.size()]);
  }
  return v;
}

// What the traced pass adds on top of the traced repetition's registry.
struct Extras {
  std::map<std::string, double> values;  // per-layer metrics computed by the workload
  std::map<std::string, std::string> notes;
  std::vector<std::string> table;        // human-readable lines
  std::string failure;  // set when a reference run went wrong
};

class Workload {
 public:
  virtual ~Workload() = default;
  // The worlds of one repetition.
  virtual std::vector<WorldSpec> RepWorlds() const = 0;
  // The worlds one setup_s sample sets up (a subset of a repetition's).
  virtual std::vector<WorldSpec> SetupWorlds() const { return RepWorlds(); }
  // The programs whose templates the layer microbenchmarks use.
  virtual std::vector<std::string> Sources() const = 0;
  virtual int NodeCount() const = 0;
  // Simulated-clock references run once in the traced pass.
  virtual void TracedExtras(SpanRecorder& spans, Extras* x) const = 0;
};

// --- table1_moves ----------------------------------------------------------

struct Table1Row {
  const char* label;
  MachineModel a;
  MachineModel b;
  bool small_thread = false;
};

std::vector<Table1Row> Table1Rows() {
  return {
      {"SPARC<->SPARC", SparcStationSlc(), SparcStationSlc()},
      {"SPARC<->Sun3", SparcStationSlc(), Sun3_100()},
      {"SPARC<->HP9000/300-1", SparcStationSlc(), Hp9000_433s()},
      {"SPARC<->HP9000/300-2", SparcStationSlc(), Hp9000_385()},
      {"SPARC<->VAX", SparcStationSlc(), VaxStation2000()},
      {"Sun3<->Sun3", Sun3_100(), Sun3_100()},
      {"Sun3<->HP9000/300-1", Sun3_100(), Hp9000_433s()},
      {"Sun3<->HP9000/300-2", Sun3_100(), Hp9000_385()},
      {"Sun3<->VAX", Sun3_100(), VaxStation2000()},
      {"HP9000/300-1<->HP-2", Hp9000_433s(), Hp9000_385()},
      {"HP9000/300-1<->VAX", Hp9000_433s(), VaxStation2000()},
      {"VAX<->VAX", VaxStation2000(), VaxStation2000()},
      {"VAX4000<->VAX4000 (small)", VaxStation4000(), VaxStation4000(), true},
  };
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : v) {
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

class Table1Moves : public Workload {
 public:
  explicit Table1Moves(Scale scale) : rounds_(scale == Scale::kFull ? 20000 : 1000) {}

  // Three pairs, each a thread making `rounds_` round trips on the direct
  // path: kNaive, kNaive across optimization levels (bridging), and kPlan.
  std::vector<WorldSpec> RepWorlds() const override {
    std::vector<WorldSpec> v;
    for (auto [strategy, dst_opt] :
         {std::pair{ConversionStrategy::kNaive, OptLevel::kO0},
          std::pair{ConversionStrategy::kNaive, OptLevel::kO1},
          std::pair{ConversionStrategy::kPlan, OptLevel::kO0}}) {
      WorldSpec w;
      w.source = MoverSource(rounds_, false);
      w.expect = MoverOutput(rounds_);
      w.machines = {SparcStationSlc(), VaxStation4000()};
      w.opts = {OptLevel::kO0, dst_opt};
      w.strategy = strategy;
      w.ops = 2ull * static_cast<uint64_t>(rounds_);
      v.push_back(std::move(w));
    }
    return v;
  }
  std::vector<std::string> Sources() const override { return {MoverSource(rounds_, false)}; }
  int NodeCount() const override { return 2; }

  // All 13 Table 1 rows under kNaive and kPlan, plus kRaw on the homogeneous
  // rows and kNaive on the bridged pair of the repetition (its second node at
  // O1): marginal simulated ms per round trip from 8- and 24-round runs.
  void TracedExtras(SpanRecorder& spans, Extras* x) const override {
    auto span = spans.Open("extra.table1_rows");
    SpanRecorder quiet;
    auto rt = [&](const Table1Row& row, ConversionStrategy s, OptLevel b_opt = OptLevel::kO0) {
      auto ms = [&](int rounds) {
        WorldSpec w;
        w.source = MoverSource(rounds, row.small_thread);
        w.machines = {row.a, row.b};
        w.opts = {OptLevel::kO0, b_opt};
        w.strategy = s;
        std::unique_ptr<EmeraldSystem> sys = SetUp(w, false, quiet);
        if (!sys->world().Run(kMaxEvents)) {
          x->failure = std::string("Table 1 row ") + row.label + " failed to run";
        }
        return sys->ElapsedMs();
      };
      return (ms(24) - ms(8)) / 16.0;
    };
    std::vector<double> naive, plan, raw, overhead;
    x->table.push_back("Table 1 row                raw(ms)  naive(ms)  plan(ms)");
    for (const Table1Row& row : Table1Rows()) {
      double n = rt(row, ConversionStrategy::kNaive);
      double p = rt(row, ConversionStrategy::kPlan);
      naive.push_back(n);
      plan.push_back(p);
      std::string raw_cell = "      -";
      if (row.a.name == row.b.name) {
        double r = rt(row, ConversionStrategy::kRaw);
        raw.push_back(r);
        overhead.push_back(n / r);
        raw_cell = Fmt("%7.1f", r);
      }
      char line[128];
      std::snprintf(line, sizeof(line), "%-26s %s  %9.1f  %8.1f", row.label,
                    raw_cell.c_str(), n, p);
      x->table.push_back(line);
    }
    x->values["sim_move_rt_ms"] = Geomean(naive);
    x->values["sim_plan_rt_ms"] = Geomean(plan);
    x->values["sim_bridge_rt_ms"] =
        rt({"SPARC-O0<->VAX4000-O1", SparcStationSlc(), VaxStation4000()},
           ConversionStrategy::kNaive, OptLevel::kO1);
    x->values["mobility.raw_rt_ms"] = Geomean(raw);
    x->values["mobility.enh_overhead_pct"] = 100.0 * (Geomean(overhead) - 1.0);
  }

 private:
  int rounds_;
};

// --- zipf_read / zipf_churn --------------------------------------------------

class Zipf : public Workload {
 public:
  Zipf(bool churn, uint64_t seed, Scale scale)
      : churn_(churn), seed_(seed), smoke_(scale == Scale::kSmoke) {}

  WorldSpec Spec(double rate, uint64_t arrivals, bool dir) const {
    WorldSpec w;
    w.source = SvcSource();
    w.expect = "0\n";
    w.machines = Cycle(NodeCount());
    w.net = true;
    w.net_config.fault.seed = seed_;
    if (churn_) {
      w.net_config.fault.drop_rate = 0.01;
      w.net_config.fault.duplicate_rate = 0.005;
      w.net_config.fault.reorder_rate = 0.01;
    }
    // No node of these worlds fails, so the failure detector must not declare
    // one dead. A peer's lease counts from the last frame heard, which can lie
    // long before probing of that peer resumes; with the default two probes,
    // two lost probes then expire a live peer and abort its moves. Six probes
    // make expiry wait for 150 ms of unanswered probing, beyond the lease.
    w.net_config.lease_probes = 6;
    // Commit leases and heal reconciliation arbitrate at the home directory,
    // so the birth-node companion (directory off) runs without them.
    w.net_config.commit_lease = churn_ && dir;
    w.net_config.heal_reconcile = churn_ && dir;
    w.dir = dir;
    w.traffic = true;
    // A world that stops draining (a leaked lease interest keeps heartbeats
    // going forever) is cut off here and fails Check's drain bound.
    w.max_events = arrivals * 200;
    TrafficConfig& t = w.traffic_config;
    t.seed = seed_;
    t.arrival_per_s = rate;
    t.max_arrivals = arrivals;
    t.zipf_s = 1.0;
    t.objects = churn_ ? 4096 : 16384;
    t.move_fraction = churn_ ? 0.10 : 0.02;
    w.ops = arrivals;
    return w;
  }

  double OwnRate() const { return churn_ ? 100.0 : 400.0; }
  uint64_t Arrivals() const {
    if (smoke_) {
      return 2000;
    }
    return churn_ ? 30000 : 20000;
  }

  std::vector<WorldSpec> RepWorlds() const override {
    return {Spec(OwnRate(), Arrivals(), true)};
  }
  std::vector<std::string> Sources() const override { return {SvcSource()}; }
  int NodeCount() const override { return churn_ ? 64 : 256; }

  void TracedExtras(SpanRecorder& spans, Extras* x) const override {
    SpanRecorder quiet;
    {
      // The seed system's birth-node routing on the same arrivals, for
      // comparison with the directory's route latency.
      auto span = spans.Open("extra.birth_companion");
      WorldOutcome birth = RunWorld(Spec(OwnRate(), Arrivals(), false), false, quiet);
      if (!birth.correct) {
        x->failure = "birth-node companion run: " + birth.why;
      }
      const LogHistogram* h = birth.metrics.FindHistogram("traffic.route_latency_us");
      uint64_t n = h != nullptr ? h->count() : 0;
      x->values["dir.birth_p50_ms"] = Resolved(h, 50.0) / 1000.0;
      x->values["dir.birth_p99_ms"] = Resolved(h, 99.0) / 1000.0;
      x->values["dir.birth_latency_n"] = static_cast<double>(n);
      x->notes["dir.birth_p50_ms"] = x->notes["dir.birth_p99_ms"] = "n=" + std::to_string(n);
    }
    {
      auto span = spans.Open("extra.max_rate");
      int probes = 0;
      double rate = MaxRate(quiet, &probes);
      x->values["sim_max_rate_rps"] = rate;
      x->notes["sim_max_rate_rps"] = "probes=" + std::to_string(probes);
    }
  }

 private:
  // A probe offers `rate` for a fixed simulated window and passes when
  // nothing fails, route p99 is at most 100 ms and the world drains within a
  // second of the last arrival's due time. An overloaded probe is cut off by
  // Spec's event budget and then fails on its unexecuted invocations.
  bool Probe(double rate, SpanRecorder& quiet) const {
    double window_s = smoke_ ? 3.0 : 30.0;
    uint64_t arrivals = static_cast<uint64_t>(std::llround(rate * window_s));
    WorldSpec w = Spec(rate, arrivals, true);
    WorldOutcome o = RunWorld(w, false, quiet);
    const LogHistogram* h = o.metrics.FindHistogram("traffic.route_latency_us");
    double p99 = Resolved(h, 99.0);
    return o.correct && o.failed == 0 && p99 > 0.0 && p99 <= 100'000.0 &&
           o.drain_lag_ms <= 1000.0;
  }

  // Double from the workload's own rate until a probe fails, then bisect to 1 %
  // (10 % at --scale smoke).
  double MaxRate(SpanRecorder& quiet, int* probes) const {
    double lo = 0.0;
    double hi = 0.0;
    double rate = OwnRate();
    auto pass = [&](double r) {
      *probes += 1;
      return Probe(r, quiet);
    };
    if (pass(rate)) {
      lo = rate;
      for (int i = 0; i < 8 && hi == 0.0; ++i) {
        rate *= 2.0;
        (pass(rate) ? lo : hi) = rate;
      }
    } else {
      hi = rate;
      for (int i = 0; i < 8 && lo == 0.0; ++i) {
        rate /= 2.0;
        (pass(rate) ? lo : hi) = rate;
      }
    }
    if (lo == 0.0 || hi == 0.0) {
      return lo;
    }
    while (hi - lo > (smoke_ ? 0.1 : 0.01) * lo) {
      double mid = (lo + hi) / 2.0;
      (pass(mid) ? lo : hi) = mid;
    }
    return lo;
  }

  bool churn_;
  uint64_t seed_;
  bool smoke_;
};

// --- contended_sched -----------------------------------------------------------

struct ContendedProgram {
  const char* name;
  std::string source;
  std::string expect;
  uint64_t invocations;  // calls on the contended objects per run
};

std::vector<ContendedProgram> ContendedPrograms() {
  return {
      {"skewed", SkewedSource(150), SkewedOutput(150), 150 * 8},
      {"prodcons", ProdConsSource(60), ProdConsOutput(60), 60 * 3},
      {"convoy", ConvoySource(12, 25), ConvoyOutput(12, 25), 4 * 12},
  };
}

WorldSpec ContendedWorld(const ContendedProgram& p, bool sched) {
  WorldSpec w;
  w.source = p.source;
  w.expect = p.expect;
  w.machines = {SparcStationSlc(), VaxStation4000(), Hp9000_385()};
  w.sched = sched;
  w.ops = p.invocations;
  return w;
}

class ContendedSched : public Workload {
 public:
  explicit ContendedSched(Scale scale) : worlds_(scale == Scale::kFull ? 200 : 5) {}

  std::vector<WorldSpec> RepWorlds() const override {
    std::vector<WorldSpec> v;
    for (const ContendedProgram& p : ContendedPrograms()) {
      for (int i = 0; i < worlds_; ++i) {
        v.push_back(ContendedWorld(p, true));
      }
    }
    return v;
  }
  std::vector<WorldSpec> SetupWorlds() const override {
    std::vector<WorldSpec> v;
    for (const ContendedProgram& p : ContendedPrograms()) {
      v.push_back(ContendedWorld(p, true));
    }
    return v;
  }
  std::vector<std::string> Sources() const override {
    std::vector<std::string> v;
    for (const ContendedProgram& p : ContendedPrograms()) {
      v.push_back(p.source);
    }
    return v;
  }
  int NodeCount() const override { return 3; }

  // Invocations per simulated second with the scheduler on, and the on/off
  // ratio against a scheduler-off reference run of each program.
  void TracedExtras(SpanRecorder& spans, Extras* x) const override {
    auto span = spans.Open("extra.sched_reference");
    SpanRecorder quiet;
    x->table.push_back("program     sched off (ms)  sched on (ms)  gain");
    for (const ContendedProgram& p : ContendedPrograms()) {
      WorldOutcome off = RunWorld(ContendedWorld(p, false), false, quiet);
      WorldOutcome on = RunWorld(ContendedWorld(p, true), false, quiet);
      if (!off.correct || !on.correct) {
        x->failure = std::string(p.name) + " reference run: " + off.why + on.why;
      }
      double on_rate = Ratio(static_cast<double>(p.invocations), on.makespan_us / 1e6);
      double off_rate = Ratio(static_cast<double>(p.invocations), off.makespan_us / 1e6);
      x->values[std::string("sim_") + p.name + "_ops_per_s"] = on_rate;
      x->values[std::string("sched.gain_") + p.name] = Ratio(on_rate, off_rate);
      char line[128];
      std::snprintf(line, sizeof(line), "%-10s  %14.2f  %13.2f  %4.2f", p.name,
                    off.makespan_us / 1000.0, on.makespan_us / 1000.0,
                    Ratio(on_rate, off_rate));
      x->table.push_back(line);
    }
  }

 private:
  int worlds_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& opt) {
  if (opt.workload == "table1_moves") {
    return std::make_unique<Table1Moves>(opt.scale);
  }
  if (opt.workload == "zipf_read") {
    return std::make_unique<Zipf>(false, opt.seed, opt.scale);
  }
  if (opt.workload == "zipf_churn") {
    return std::make_unique<Zipf>(true, opt.seed, opt.scale);
  }
  if (opt.workload == "contended_sched") {
    return std::make_unique<ContendedSched>(opt.scale);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Layer microbenchmarks: host time of public layer calls on the workload's
// own templates.
// ---------------------------------------------------------------------------

volatile uint64_t g_sink = 0;

// Keeps a timed result observable, so the work producing it is not elided.
void Keep(uint64_t v) { g_sink = g_sink + v; }

// Minimum length of one microbenchmark batch (shorter at --scale smoke).
double g_batch_s = 0.04;

// Runs `body` (which returns the units of work it did) in five batches of at
// least g_batch_s each and returns the median nanoseconds per unit.
double NsPerUnit(const std::function<uint64_t()>& body) {
  std::vector<double> per_unit;
  for (int batch = 0; batch < 5; ++batch) {
    HostTimer t;
    uint64_t units = 0;
    do {
      units += body();
    } while (t.Elapsed().real_s < g_batch_s);
    per_unit.push_back(t.Elapsed().real_s * 1e9 / static_cast<double>(units));
  }
  return Median(per_unit);
}

constexpr Arch kArchs[] = {Arch::kVax32, Arch::kM68k, Arch::kSparc32};

struct Templates {
  std::vector<std::shared_ptr<const CompiledProgram>> programs;

  template <typename F>
  void ForEachClass(F&& f) const {
    for (const auto& p : programs) {
      for (const auto& cls : p->classes) {
        f(*cls);
      }
    }
  }
};

Templates CompileTemplates(const std::vector<std::string>& sources) {
  Templates t;
  for (const std::string& s : sources) {
    CompileResult r = CompileSource(s);
    HETM_CHECK_MSG(r.ok(), "benchmark program failed to compile");
    t.programs.push_back(r.program);
  }
  return t;
}

double CompileMs(const std::vector<std::string>& sources) {
  return NsPerUnit([&] {
           for (const std::string& s : sources) {
             CompileResult r = CompileSource(s);
             Keep(r.program->classes.size());
           }
           return uint64_t{1};
         }) /
         1e6;
}

// Host ns per guest instruction of bench_intranode's hot loop, per ISA.
std::map<std::string, double> IsaNsPerInstr() {
  std::map<std::string, double> out;
  for (const MachineModel& m : {SparcStationSlc(), Sun3_100(), VaxStation4000()}) {
    CompileResult compiled = CompileSource(HotLoopSource(4000));
    HETM_CHECK_MSG(compiled.ok(), "hot loop failed to compile");
    std::shared_ptr<const CompiledProgram> program = compiled.program;
    out[ArchName(m.arch)] = NsPerUnit([&] {
      World world;
      world.tracer().set_enabled(false);
      world.AddNode(m);
      world.RegisterProgram(program);
      world.Boot(0);
      bool ok = world.Run(kMaxEvents);
      HETM_CHECK_MSG(ok, "hot loop failed to run");
      return world.node(0).meter().counters().vm_instructions;
    });
  }
  return out;
}

// Marshal + unmarshal of every object template and of every activation
// record at every bus stop, per wire byte (kNaive tagged encoding).
double MarshalNsPerByte(const Templates& t) {
  CostMeter meter{SparcStationSlc()};
  struct ArCase {
    Arch src, dst;
    const CompiledClass* cls;
    int op_index;
    int stop;
    ActivationRecord ar;
  };
  std::vector<ArCase> ars;
  std::vector<std::pair<Arch, const CompiledClass*>> objs;
  t.ForEachClass([&](const CompiledClass& cls) {
    for (size_t a = 0; a < 3; ++a) {
      Arch src = kArchs[a];
      Arch dst = kArchs[(a + 1) % 3];
      objs.emplace_back(src, &cls);
      for (size_t k = 0; k < cls.ops.size(); ++k) {
        const OpInfo& op = cls.ops[k];
        for (int stop = 0; stop < op.Ir(OptLevel::kO0).num_stops; ++stop) {
          ars.push_back({src, dst, &cls, static_cast<int>(k), stop,
                         MakeActivation(src, cls.code_oid, static_cast<int>(k), op,
                                        MakeDataOid(0, 1))});
        }
      }
    }
  });
  return NsPerUnit([&] {
    uint64_t bytes = 0;
    for (const auto& [arch, cls] : objs) {
      EmObject obj;
      obj.fields = MakeFieldImage(arch, *cls);
      WireWriter w(ConversionStrategy::kNaive, arch, &meter);
      MarshalObjectFields(arch, *cls, obj, w);
      std::vector<uint8_t> wire = w.Take();
      Arch dst = kArchs[(static_cast<int>(arch) + 1) % 3];
      EmObject back;
      back.fields = MakeFieldImage(dst, *cls);
      WireReader r(ConversionStrategy::kNaive, arch, &meter, wire);
      UnmarshalObjectFields(dst, *cls, back, r);
      bytes += wire.size();
    }
    for (const ArCase& c : ars) {
      const OpInfo& op = c.cls->ops[c.op_index];
      WireWriter w(ConversionStrategy::kNaive, c.src, &meter);
      MarshalArCells(c.src, op, OptLevel::kO0, c.ar, c.stop, w);
      std::vector<uint8_t> wire = w.Take();
      ActivationRecord back = MakeActivation(c.dst, c.cls->code_oid, c.op_index, op, 1);
      WireReader r(ConversionStrategy::kNaive, c.src, &meter, wire);
      UnmarshalArCells(c.dst, op, back, r);
      bytes += wire.size();
    }
    Keep(meter.cycles());
    return bytes;
  });
}

// PcToStop on every observable stop and StopToPc on every stop, both
// optimization levels, every architecture.
double BusStopNsPerLookup(const Templates& t) {
  std::vector<const ArchOpCode*> codes;
  t.ForEachClass([&](const CompiledClass& cls) {
    for (const OpInfo& op : cls.ops) {
      for (Arch a : kArchs) {
        for (OptLevel o : {OptLevel::kO0, OptLevel::kO1}) {
          codes.push_back(&op.Code(a, o));
        }
      }
    }
  });
  return NsPerUnit([&] {
    uint64_t lookups = 0;
    for (const ArchOpCode* code : codes) {
      for (size_t s = 1; s < code->stops.size(); ++s) {
        if (!code->stops[s].exit_only) {
          Keep(static_cast<uint64_t>(PcToStop(*code, code->stops[s].pc, false,
                                                   nullptr, ConversionStrategy::kNaive)));
          ++lookups;
        }
        Keep(StopToPc(*code, static_cast<int>(s), nullptr, ConversionStrategy::kNaive));
        ++lookups;
      }
    }
    return lookups;
  });
}

struct PlanCase {
  ConversionPlan plan;
  std::vector<uint8_t> image;
  std::vector<uint32_t> regs;
};

std::vector<PlanCase> AllPlans(const Templates& t) {
  std::vector<PlanCase> v;
  t.ForEachClass([&](const CompiledClass& cls) {
    for (Arch a : kArchs) {
      v.push_back({CompileObjectPlan(cls, a), MakeFieldImage(a, cls), {}});
      for (size_t k = 0; k < cls.ops.size(); ++k) {
        const OpInfo& op = cls.ops[k];
        ActivationRecord ar =
            MakeActivation(a, cls.code_oid, static_cast<int>(k), op, MakeDataOid(0, 1));
        for (int stop = 0; stop < op.Ir(OptLevel::kO0).num_stops; ++stop) {
          v.push_back({CompileArPlan(op, OptLevel::kO0, stop, a), ar.frame, ar.regs});
        }
      }
    }
  });
  return v;
}

double PlanCompileUs(const Templates& t) {
  return NsPerUnit([&] {
           uint64_t plans = 0;
           t.ForEachClass([&](const CompiledClass& cls) {
             for (Arch a : kArchs) {
               Keep(CompileObjectPlan(cls, a).ops.size());
               ++plans;
               for (const OpInfo& op : cls.ops) {
                 for (int stop = 0; stop < op.Ir(OptLevel::kO0).num_stops; ++stop) {
                   Keep(CompileArPlan(op, OptLevel::kO0, stop, a).ops.size());
                   ++plans;
                 }
               }
             }
           });
           return plans;
         }) /
         1000.0;
}

double PlanNsPerByte(const Templates& t) {
  std::vector<PlanCase> plans = AllPlans(t);
  CostMeter meter{SparcStationSlc()};
  return NsPerUnit([&] {
    uint64_t bytes = 0;
    for (PlanCase& c : plans) {
      WireWriter w(ConversionStrategy::kPlan, c.plan.arch, &meter);
      ExecutePlanEncode(c.plan, {c.image.data(), c.image.size(), c.regs.data(), c.regs.size()},
                        w, &meter);
      std::vector<uint8_t> wire = w.Take();
      WireReader r(ConversionStrategy::kPlan, c.plan.arch, &meter, wire);
      HETM_CHECK(ExecutePlanDecode(
          c.plan, r, {c.image.data(), c.image.size(), c.regs.data(), c.regs.size()},
          &meter));
      bytes += c.plan.canonical_bytes;
    }
    Keep(meter.cycles());
    return bytes;
  });
}

double HomeLookupNs(int nodes) {
  DirRing ring(nodes, DirConfig{});
  std::vector<Oid> oids;
  for (uint32_t i = 0; i < 16384; ++i) {
    oids.push_back(MakeDataOid(static_cast<int>(i % static_cast<uint32_t>(nodes)),
                               i / static_cast<uint32_t>(nodes) + 1));
  }
  return NsPerUnit([&] {
    for (Oid oid : oids) {
      Keep(static_cast<uint64_t>(ring.HomeOf(oid)));
    }
    return static_cast<uint64_t>(oids.size());
  });
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

// Peak resident set of this process's address space (VmHWM). getrusage's
// ru_maxrss is not used: it survives exec, so it would report the peak of a
// launcher that forked this process if that were larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
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
  return out;
}

struct RunSummary {
  bool correct = true;
  std::string why;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int reps = 0;
  int traced_reps = 0;
  uint64_t sim_fingerprint = 0;
  uint64_t trace_digest = 0;
};

void Fail(RunSummary* s, const std::string& why) {
  if (s->correct) {
    s->correct = false;
    s->why = why;
  }
}

void Accumulate(RunSummary* s, const Rep& rep) {
  s->attempted += rep.ops;
  s->failed += rep.failed;
  if (!rep.correct) {
    Fail(s, rep.why);
  }
}

// Per-layer metrics from the traced repetition's registry, the untraced
// repetitions' host times and the workload's extras.
void LayerMetrics(const Workload& wl, const Rep& traced, const std::vector<HostTime>& untraced,
                  double traced_run_s, const Extras& x, const std::string& workload,
                  SpanRecorder& spans, Report& r) {
  const MetricsRegistry& m = traced.metrics;
  auto c = [&](const char* name) {
    std::string key = std::string("total.") + name;
    if (m.counters().count(key) == 0) {
      std::fprintf(stderr, "warning: World::ExportMetrics no longer exports %s\n", key.c_str());
    }
    return static_cast<double>(m.counter(key));
  };
  auto extra = [&](const std::string& name) {
    auto it = x.values.find(name);
    return it != x.values.end() ? it->second : 0.0;
  };
  auto note = [&](const std::string& name) {
    auto it = x.notes.find(name);
    return it != x.notes.end() ? it->second : std::string();
  };
  double ops = static_cast<double>(traced.ops);
  double moves = c("moves");
  std::vector<double> run_real, run_cpu;
  for (const HostTime& run : untraced) {
    run_real.push_back(run.real_s);
    run_cpu.push_back(run.cpu_s);
  }
  double run_s = Median(run_real);

  // Headline simulated metrics of each workload (0 where not defined).
  r.Sim("sim_move_rt_ms", "ms_sim", extra("sim_move_rt_ms"));
  r.Sim("sim_plan_rt_ms", "ms_sim", extra("sim_plan_rt_ms"));
  r.Sim("sim_bridge_rt_ms", "ms_sim", extra("sim_bridge_rt_ms"));
  AddPercentiles(r, m, "traffic.route_latency_us", "sim_p50_ms", "sim_p99_ms",
                 "sim_latency_n", true);
  AddPercentiles(r, m, "move.commit_latency_us", "sim_move_p50_ms", "sim_move_p99_ms",
                 "sim_move_latency_n", true);
  r.Sim("sim_max_rate_rps", "1/s_sim", extra("sim_max_rate_rps"),
        note("sim_max_rate_rps"));
  for (const char* p : {"skewed", "prodcons", "convoy"}) {
    std::string name = std::string("sim_") + p + "_ops_per_s";
    r.Sim(name, "1/s_sim", extra(name));
  }

  // Each microbenchmark gets its own span.
  Templates t = CompileTemplates(wl.Sources());
  auto timed = [&](const char* name, const std::function<double()>& f) {
    auto span = spans.Open(std::string("layer.") + name);
    return f();
  };
  r.Host("compiler.compile_ms", "ms", timed("compiler", [&] { return CompileMs(wl.Sources()); }));

  double frames = c("messages_sent") + c("packets_sent") + c("acks_sent") + c("heartbeats_sent");
  r.Host("sim.run_s", "s", run_s, Fmt("q1=%.4f q3=%.4f", Quantile(run_real, 0.25),
                                         Quantile(run_real, 0.75)));
  r.Host("sim.cpu_s", "s", Median(run_cpu));
  r.Sim("sim.makespan_s", "s_sim", traced.makespan_us / 1e6);
  r.Sim("sim.frames_per_op", "count", Ratio(frames, ops));
  r.Host("sim.host_us_per_frame", "us", Ratio(run_s * 1e6, frames));
  r.Sim("traffic.drain_lag_ms", "ms_sim", traced.drain_lag_ms);
  const LogHistogram* hops = m.FindHistogram("traffic.route_hops");
  r.Sim("traffic.route_hops_mean", "count", hops != nullptr ? hops->Mean() : 0.0);

  r.Sim("isa.instr_per_op", "count", Ratio(c("vm_instructions"), ops));
  std::map<std::string, double> isa;
  {
    auto span = spans.Open("layer.isa");
    isa = IsaNsPerInstr();
  }
  std::string isa_note;
  double isa_sum = 0.0;
  for (const auto& [arch, ns] : isa) {
    isa_sum += ns;
    isa_note += arch + "=" + Fmt("%.2f", ns) + " ";
  }
  r.Host("isa.host_ns_per_instr", "ns", isa_sum / static_cast<double>(isa.size()), isa_note);

  // Every message of table1_moves is a move; elsewhere moves share the wire
  // with invocations and the byte count cannot be split.
  r.Sim("mobility.bytes_per_move", "B",
        workload == "table1_moves" ? Ratio(c("bytes_sent"), moves) : 0.0);
  r.Sim("mobility.conv_calls_per_byte", "ratio", Ratio(c("conv_calls"), c("conv_bytes")));
  r.Sim("mobility.raw_rt_ms", "ms_sim", extra("mobility.raw_rt_ms"));
  r.Sim("mobility.enh_overhead_pct", "%", extra("mobility.enh_overhead_pct"));
  r.Host("mobility.host_ns_per_marshal_byte", "ns",
        timed("mobility.marshal", [&] { return MarshalNsPerByte(t); }));
  r.Sim("mobility.busstop_lookups_per_move", "count", Ratio(c("busstop_lookups"), moves));
  r.Host("mobility.host_ns_per_busstop_lookup", "ns",
        timed("mobility.busstop", [&] { return BusStopNsPerLookup(t); }));

  r.Sim("conv.plan_hit_rate", "ratio",
        Ratio(c("plan_hits"), c("plan_hits") + c("plan_misses")));
  r.Sim("conv.bypass_frac", "ratio", Ratio(c("plan_bypasses"), moves));
  r.Sim("conv.plan_ops_per_exec", "count", Ratio(c("plan_ops"), c("plan_execs")));
  r.Host("conv.host_ns_per_plan_byte", "ns",
        timed("conv.plan_exec", [&] { return PlanNsPerByte(t); }));
  r.Host("conv.host_us_per_plan_compile", "us",
        timed("conv.plan_compile", [&] { return PlanCompileUs(t); }));

  r.Sim("bridge.ops_per_move", "count", Ratio(c("bridge_ops"), moves));

  r.Sim("net.retx_frac", "ratio", Ratio(c("retransmits"), c("packets_sent")));
  r.Sim("net.heartbeats_per_data_frame", "ratio",
        Ratio(c("heartbeats_sent"), c("packets_sent")));
  r.Sim("net.acks_per_data_frame", "ratio", Ratio(c("acks_sent"), c("packets_sent")));
  r.Sim("net.dups_suppressed", "count", c("dups_suppressed"));
  r.Sim("net.moves_aborted_frac", "ratio", Ratio(c("moves_aborted"), moves));
  r.Sim("net.claims_denied", "count", c("claims_denied"));
  r.Sim("net.copies_retired", "count", c("copies_retired"));
  r.Sim("runtime.replies_dropped", "count", c("replies_dropped"));

  r.Sim("dir.lookups_per_invoke", "ratio", Ratio(c("dir_lookups"), c("remote_invokes")));
  r.Sim("dir.stale_per_lookup", "ratio", Ratio(c("dir_stale_hits"), c("dir_lookups")));
  r.Sim("dir.updates_per_move", "ratio", Ratio(c("dir_updates"), moves));
  r.Sim("dir.broadcasts", "count", c("locate_broadcasts"));
  r.Host("dir.host_ns_per_home_lookup", "ns",
        timed("dir.home_lookup", [&] { return HomeLookupNs(wl.NodeCount()); }));
  r.Sim("dir.birth_p50_ms", "ms_sim", extra("dir.birth_p50_ms"), note("dir.birth_p50_ms"));
  r.Sim("dir.birth_p99_ms", "ms_sim", extra("dir.birth_p99_ms"), note("dir.birth_p99_ms"));
  r.Sim("dir.birth_latency_n", "count", extra("dir.birth_latency_n"));

  r.Sim("sched.proposed", "count", c("sched_proposed"));
  r.Sim("sched.commit_frac", "ratio", Ratio(c("sched_committed"), c("sched_proposed")));
  r.Sim("sched.vetoed", "count", c("sched_vetoed"));
  r.Sim("sched.pingpong", "count", c("sched_pingpong"));
  r.Sim("sched.digests_sent", "count", c("sched_digests_sent"));
  for (const char* p : {"skewed", "prodcons", "convoy"}) {
    std::string name = std::string("sched.gain_") + p;
    r.Sim(name, "ratio", extra(name));
  }

  r.Sim("sync.contended_frac", "ratio",
        Ratio(c("sync.contended"), c("sync.acquires") + c("sync.contended")));
  r.Sim("sync.waits_per_op", "ratio", Ratio(c("sync.waits"), ops));
  r.Sim("sync.waiters_moved", "count", c("sync.waiters_moved"));

  r.Host("obs.trace_overhead_pct", "%", 100.0 * (Ratio(traced_run_s, run_s) - 1.0),
        Fmt("traced %.4f s vs untraced %.4f s", traced_run_s, run_s));
  r.Sim("obs.trace_events_per_op", "count",
        Ratio(static_cast<double>(traced.trace_events), ops));

  for (const char* stage : {"pack", "negotiate", "transfer", "reserve", "unpack", "xlate",
                            "bridge", "resume", "plan-compile", "plan-exec", "reconcile"}) {
    std::string base = std::string("stage.") + stage;
    AddPercentiles(r, m, std::string("phase.") + stage + "_us", base + ".p50_us",
                   base + ".p99_us", base + ".n", false);
  }
}

void PrintMetrics(const char* title, const std::vector<Metric>& v) {
  std::printf("\n=== %s ===\n", title);
  for (const Metric& m : v) {
    std::printf("%-36s %16.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

void AppendJsonMetrics(std::string& out, const char* key, const std::vector<Metric>& v) {
  out += std::string("\"") + key + "\":{";
  for (size_t i = 0; i < v.size(); ++i) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", v[i].value);
    out += (i == 0 ? "" : ",") + std::string("\"") + v[i].name + "\":{\"value\":" + num +
           ",\"unit\":\"" + v[i].unit + "\",\"clock\":\"" + (v[i].sim ? "sim" : "host") +
           "\",\"note\":\"" + JsonEscape(v[i].note) + "\"}";
  }
  out += "}";
}

// The timed phase: repetitions with the tracer off for opt.seconds (at least
// kMinReps), with set-up samples between them. Adds the end-to-end metrics
// and returns every repetition's World::Run time.
std::vector<HostTime> TimedPhase(const Workload& wl, const Options& opt, RunSummary* sum,
                                 Report* report) {
  SpanRecorder quiet;
  // Set-up samples: the workload's set-up unit, timed between the
  // repetitions for about a twentieth of the run and at least 21 times. Spread
  // over the run, their median is not moved by a burst of load from other
  // tenants; such bursts last about half a second and slowed every set-up in
  // them by half.
  std::vector<double> setups;
  std::vector<WorldSpec> setup_unit = wl.SetupWorlds();
  auto set_up = [&] {
    std::vector<std::unique_ptr<EmeraldSystem>> built;  // torn down after timing
    HostTimer t;
    for (const WorldSpec& w : setup_unit) {
      built.push_back(SetUp(w, false, quiet));
    }
    setups.push_back(t.Elapsed().real_s);
  };

  std::vector<WorldSpec> rep_worlds = wl.RepWorlds();
  std::vector<HostTime> runs;
  std::vector<double> ops_per_s;
  HostTimer phase;
  double setting_up_s = 0.0;
  while (runs.size() < static_cast<size_t>(kMinReps) || phase.Elapsed().real_s < opt.seconds) {
    HostTimer t;
    do {
      set_up();
    } while (setting_up_s + t.Elapsed().real_s < 0.05 * phase.Elapsed().real_s);
    setting_up_s += t.Elapsed().real_s;
    Rep rep = RunRep(rep_worlds, false, quiet);
    Accumulate(sum, rep);
    if (runs.empty()) {
      sum->sim_fingerprint = rep.fingerprint;
    } else if (rep.fingerprint != sum->sim_fingerprint) {
      Fail(sum, "repetitions of one seed disagree");
    }
    runs.push_back(rep.run);
    ops_per_s.push_back(Ratio(static_cast<double>(rep.ops), rep.run.real_s));
  }
  while (setups.size() < 21) {
    set_up();
  }
  sum->reps = static_cast<int>(runs.size());

  report->EndToEnd("setup_s", "s", Median(setups),
                   Fmt("n=%.0f q1=%.6f", static_cast<double>(setups.size()),
                       Quantile(setups, 0.25)) +
                       Fmt(" q3=%.6f", Quantile(setups, 0.75)));
  // The fastest repetition, not the median one: on a shared host other
  // tenants slow this process for seconds at a time, longer than a
  // repetition, so a run's median moves with their load while its fastest
  // repetition tracks the code. The median and quartiles are kept in the note.
  report->EndToEnd("host_ops_per_s", "1/s",
                   *std::max_element(ops_per_s.begin(), ops_per_s.end()),
                   Fmt("reps=%.0f median=%.1f", static_cast<double>(runs.size()),
                       Median(ops_per_s)) +
                       Fmt(" q1=%.1f", Quantile(ops_per_s, 0.25)) +
                       Fmt(" q3=%.1f", Quantile(ops_per_s, 0.75)));
  report->EndToEnd("peak_rss_mb", "MB", PeakRssMb());
  return runs;
}

// The traced pass: the same repetitions with the tracer on, which must not
// change a single simulated number, then the workload's references, the
// per-layer metrics and hetm_bench's own spans (written to opt.trace_out).
// Returns the lines to print, or false when the trace cannot be written.
bool TracedPass(const Workload& wl, const Options& opt, const std::vector<HostTime>& runs,
                RunSummary* sum, Report* report, std::vector<std::string>* lines) {
  SpanRecorder spans;
  spans.set_enabled(true);
  std::vector<WorldSpec> rep_worlds = wl.RepWorlds();
  std::vector<Rep> traced;
  std::vector<double> traced_run;
  for (int i = 0; i < kTracedReps; ++i) {
    spans.set_run(i + 1);
    auto span = spans.Open("rep");
    traced.push_back(RunRep(rep_worlds, true, spans));
    const Rep& rep = traced.back();
    traced_run.push_back(rep.run.real_s);
    Accumulate(sum, rep);
    if (rep.fingerprint != sum->sim_fingerprint) {
      Fail(sum, "the traced pass changed the simulated outcome");
    }
    if (rep.trace_digest != traced.front().trace_digest) {
      Fail(sum, "traced repetitions of one seed disagree");
    }
  }
  sum->traced_reps = kTracedReps;
  sum->trace_digest = traced.front().trace_digest;
  spans.set_run(0);
  Extras x;
  wl.TracedExtras(spans, &x);
  if (!x.failure.empty()) {
    Fail(sum, x.failure);
  }
  LayerMetrics(wl, traced.front(), runs, Median(traced_run), x, opt.workload, spans, *report);
  *lines = x.table;

  std::map<std::string, std::pair<double, double>> by_name;  // total, self (ms)
  std::vector<double> self = spans.SelfUs();
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanRecorder::Span& s = spans.spans()[i];
    by_name[s.name].first += (s.end_us - s.start_us) / 1000.0;
    by_name[s.name].second += self[i] / 1000.0;
  }
  lines->push_back("\n=== hetm_bench spans (host ms) ===");
  for (const auto& [name, t] : by_name) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-28s total %10.2f  self %10.2f", name.c_str(), t.first,
                  t.second);
    lines->push_back(line);
  }
  if (!spans.WriteChromeJson(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    return false;
  }
  return true;
}

bool WriteReport(const Options& opt, const RunSummary& sum, const Report& report) {
  std::string json = "{\"workload\":\"" + opt.workload + "\",\"seed\":" +
                     std::to_string(opt.seed) + ",\"scale\":\"" +
                     (opt.scale == Scale::kFull ? "full" : "smoke") + "\",\"correct\":" +
                     (sum.correct ? "true" : "false") + ",\"why\":\"" + JsonEscape(sum.why) +
                     "\",\"attempted\":" + std::to_string(sum.attempted) +
                     ",\"failed\":" + std::to_string(sum.failed) +
                     ",\"reps\":" + std::to_string(sum.reps) +
                     ",\"traced_reps\":" + std::to_string(sum.traced_reps) +
                     ",\"sim_fingerprint\":\"" + Hex(sum.sim_fingerprint) +
                     "\",\"trace_digest\":\"" + Hex(sum.trace_digest) + "\",";
  AppendJsonMetrics(json, "end_to_end", report.end_to_end);
  json += ",";
  AppendJsonMetrics(json, "per_layer", report.per_layer);
  json += "}\n";
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr || std::fputs(json.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return false;
  }
  return true;
}

int Run(const Options& opt) {
  std::unique_ptr<Workload> wl = MakeWorkload(opt);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (opt.scale == Scale::kSmoke) {
    g_batch_s = 0.002;
  }
  RunSummary sum;
  Report report;
  std::vector<HostTime> runs = TimedPhase(*wl, opt, &sum, &report);
  std::vector<std::string> lines;
  if (!opt.trace_out.empty() && !TracedPass(*wl, opt, runs, &sum, &report, &lines)) {
    return 1;
  }

  std::printf("hetm_bench %s seed=%llu reps=%d traced_reps=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), sum.reps, sum.traced_reps);
  PrintMetrics("end-to-end", report.end_to_end);
  if (!report.per_layer.empty()) {
    PrintMetrics("per-layer", report.per_layer);
  }
  for (const std::string& line : lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("\ncorrect=%s attempted=%llu failed=%llu%s%s\n", sum.correct ? "true" : "false",
              static_cast<unsigned long long>(sum.attempted),
              static_cast<unsigned long long>(sum.failed), sum.why.empty() ? "" : " why=",
              sum.why.c_str());
  return opt.out.empty() || WriteReport(opt, sum, report) ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hetm_bench --workload table1_moves|zipf_read|zipf_churn|contended_sched\n"
               "                  --seed N [--seconds T] [--scale full|smoke]\n"
               "                  [--out FILE] [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace hetm::bench

int main(int argc, char** argv) {
  using hetm::bench::Options;
  using hetm::bench::Scale;
  // Fixed malloc thresholds. glibc otherwise adapts its mmap and trim
  // thresholds to the frees it has seen, and whether a freed world's memory
  // goes back to the kernel then flips from one set-up to the next: set-up
  // times within one run split into two clusters (0.53 and 0.92 ms for
  // zipf_churn), and the median lands in either.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return hetm::bench::Usage();
    }
    std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
    } else if (arg == "--scale" && (val == "full" || val == "smoke")) {
      opt.scale = val == "full" ? Scale::kFull : Scale::kSmoke;
    } else if (arg == "--out") {
      opt.out = val;
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return hetm::bench::Usage();
    }
    if (end != nullptr && (*end != '\0' || end == val.c_str())) {
      return hetm::bench::Usage();
    }
  }
  if (opt.workload.empty() || !(opt.seconds >= 0.0)) {
    return hetm::bench::Usage();
  }
  return hetm::bench::Run(opt);
}
