// Host-clock instruments of hetm_bench: a timer that reads real and CPU time
// together, hetm_bench's own spans around each public call it makes,
// and the order statistics the report uses.
//
// Nothing here touches a World: the simulated clock never sees these timers.
#ifndef HETM_BENCH_HOST_CLOCK_H_
#define HETM_BENCH_HOST_CLOCK_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace hetm::bench {

// Real (steady_clock) and CPU (this process) seconds.
struct HostTime {
  double real_s = 0.0;
  double cpu_s = 0.0;
};

inline HostTime HostNow() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return {std::chrono::duration<double>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count(),
          static_cast<double>(cpu.tv_sec) + static_cast<double>(cpu.tv_nsec) * 1e-9};
}

class HostTimer {
 public:
  HostTimer() : start_(HostNow()) {}
  HostTime Elapsed() const {
    HostTime now = HostNow();
    return {now.real_s - start_.real_s, now.cpu_s - start_.cpu_s};
  }

 private:
  HostTime start_;
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// hetm_bench's spans: name, start, end, parent and run id, kept in memory and
// written as Chrome trace-event JSON at exit. A span's self time is its
// duration minus the part of it its child spans cover; children never overlap
// (hetm_bench is single-threaded), so that is the sum of their durations.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = -1;
    int run = 0;
  };

  // Closes its span when it goes out of scope. A disabled recorder hands out
  // scopes that record nothing.
  class Scope {
   public:
    Scope(SpanRecorder* rec, int index) : rec_(rec), index_(index) {}
    ~Scope() {
      if (rec_ != nullptr) {
        rec_->End(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  // Spans opened from now on carry run id `run` (one id per workload run).
  void set_run(int run) { run_ = run; }

  [[nodiscard]] Scope Open(const std::string& name) {
    if (!enabled_) {
      return Scope(nullptr, -1);
    }
    Span s;
    s.name = name;
    s.start_us = NowUs();
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run_;
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, open_.back());
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span, indexed like spans().
  std::vector<double> SelfUs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_us - spans_[i].start_us;
      if (spans_[i].parent >= 0) {
        self[spans_[i].parent] -= spans_[i].end_us - spans_[i].start_us;
      }
    }
    return self;
  }

  // Chrome trace-event JSON: one complete ("X") event per span, loadable in
  // Perfetto or chrome://tracing; args carry the parent index, run id and
  // self time.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
    std::vector<double> self = SelfUs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"hetm_bench\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"run\":%d,\"self_us\":%.3f}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us - t0,
                   s.end_us - s.start_us, i, s.parent, s.run, self[i]);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static double NowUs() { return HostNow().real_s * 1e6; }

  void End(int index) {
    spans_[index].end_us = NowUs();
    if (!open_.empty() && open_.back() == index) {
      open_.pop_back();
    }
  }

  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace hetm::bench

#endif  // HETM_BENCH_HOST_CLOCK_H_
