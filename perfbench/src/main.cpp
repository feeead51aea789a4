// The repo benchmark. One workload per invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 repeats the workload untraced for --seconds and reports the
// end-to-end metrics. --trace 1 repeats it untraced for half of --seconds
// as the reference, then runs one traced repetition (timing decorators on every
// reachable seam) and one single-worker repetition, and reports the
// per-layer metrics; its spans go to <out-dir>/spans_<workload>.jsonl.
//
// Every run checks that the simulated outputs of all repetitions agree
// bit for bit (and with the pinned digest for the seeds that have one);
// a failed check is a failed operation and makes the exit code 1. The
// last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void count(std::string name, std::uint64_t value) {
    metric(std::move(name), static_cast<double>(value), "count");
  }

  /// One output check: counts as an attempted operation, and as a
  /// failed one when it does not hold.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) ++failed;
    std::cout << (ok ? "PASS  " : "FAIL  ") << what << "\n";
  }

  void print(std::ostream& out) const {
    char buf[64];
    for (const auto& m : metrics_) {
      std::snprintf(buf, sizeof buf, "%.9g", m.value);
      out << "  " << m.name << std::string(m.name.size() < 36 ? 36 - m.name.size() : 1, ' ')
          << buf << " " << m.unit << "\n";
    }
    const double error_rate =
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
    std::snprintf(buf, sizeof buf, "%.9g", error_rate);
    out << "  error_rate" << std::string(26, ' ') << buf << " ratio (" << failed << "/"
        << attempted << ")\n";
  }

  std::string json() const {
    std::ostringstream os;
    os << "{\"correct\":" << (failed == 0 ? "true" : "false") << ",\"attempted\":" << attempted
       << ",\"failed\":" << failed << ",\"metrics\":{";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      os << (i == 0 ? "" : ",") << "\"" << metrics_[i].name << "\":{\"value\":" << buf
         << ",\"unit\":\"" << metrics_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || !(o.seconds > 0.0)) return std::nullopt;
  return o;
}

/// Moves a single-threaded workload to the next allowed CPU before each
/// repetition and restores the original mask on destruction. On a VM
/// whose vCPUs are slowed in bursts of seconds one at a time, a thread
/// left on one vCPU makes a whole run slow; spread over the vCPUs, the
/// slow repetitions stay a minority and the median skips them.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    if (!enabled || sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort: a refusal keeps the old mask
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Untraced repetitions until `seconds` have passed (at least two, so
/// the repeat check always has a pair), each checked against the first.
std::vector<RepResult> timed_reps(Workload& w, double seconds, Report& report) {
  std::vector<RepResult> reps;
  CpuRotation rotation(w.threads() == 1);
  const std::int64_t t0 = now_ns();
  while (reps.size() < 2 || static_cast<double>(now_ns() - t0) * 1e-9 < seconds) {
    rotation.next();
    reps.push_back(w.run(w.threads(), nullptr));
    report.attempted += reps.back().attempted;
    report.failed += reps.back().failed;
  }
  bool same = true;
  bool same_solos = true;
  for (const auto& r : reps) {
    same &= r.digest == reps.front().digest;
    same_solos &= r.solo_misses == reps.front().solo_misses &&
                  (r.distinct_solos == 0 || r.solo_misses == r.distinct_solos);
  }
  report.check(same, "simulated outputs bit-identical across " + std::to_string(reps.size()) +
                         " timed repetitions (digest " + reps.front().digest + ")");
  report.check(same_solos, "every repetition starts with a cold solo cache (" +
                               std::to_string(reps.front().solo_misses) + " misses each)");
  return reps;
}

void check_pinned(const Options& o, const RepResult& r, Report& report) {
  const std::string pinned = pinned_digest(o.workload, o.seed);
  if (pinned.empty()) return;
  report.check(r.digest == pinned, "digest matches the one pinned for seed " +
                                       std::to_string(o.seed) + " (" + pinned + ")");
}

/// One set-up sample: the mean of back-to-back set-ups covering at least
/// 20 ms, so a set-up of tens of microseconds is not allocator noise.
double setup_sample(Workload& w) {
  double total = 0.0;
  int n = 0;
  do {
    total += w.setup_once();
    ++n;
  } while (total < 20e-3);
  return total / n;
}

void end_to_end(Workload& w, const Options& o, Report& report) {
  std::vector<double> setups;
  for (int i = 0; i < 21; ++i) setups.push_back(setup_sample(w));
  const auto reps = timed_reps(w, o.seconds, report);
  check_pinned(o, reps.front(), report);

  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> ticks;
  std::vector<double> attaches;
  for (const auto& r : reps) {
    walls.push_back(r.wall_s);
    rates.push_back(r.core_cycles / r.wall_s / 1e6);
    ticks.insert(ticks.end(), r.tick_ms.begin(), r.tick_ms.end());
    attaches.insert(attaches.end(), r.attach_ms.begin(), r.attach_ms.end());
  }
  const RepResult& first = reps.front();
  // A tail is the named percentile when the run has at least ten samples
  // beyond it, else the highest percentile that has (never below p50).
  const auto tail_rank = [](const std::vector<double>& v, unsigned p) {
    return std::min(p, std::max(50u, highest_reportable_percentile(v.size())));
  };
  std::cout << "repetition walls (s):";
  for (const double wall : walls) std::cout << " " << wall;
  std::cout << "\nrepetitions " << reps.size() << "; tick samples " << ticks.size()
            << ", tail reported at p" << tail_rank(ticks, 95) << "; attach samples "
            << attaches.size() << ", tail reported at p" << tail_rank(attaches, 90) << "\n";
  report.metric("setup_s", median(setups), "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("core_mcycles_per_s", median(rates), "Mcycles/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.metric("tick_p50_ms", percentile(ticks, 50), "ms");
  report.metric("tick_p95_ms", percentile(ticks, tail_rank(ticks, 95)), "ms");
  report.metric("attach_p50_ms", percentile(attaches, 50), "ms");
  report.metric("attach_p90_ms", percentile(attaches, tail_rank(attaches, 90)), "ms");
  report.metric("hs_norm_cmm_c", first.hs_norm_cmm_c, "ratio");
  report.metric("slo_breach_ratio", first.slo_breach_ratio, "ratio");
  report.metric("fleet_hm_ipc", first.fleet_hm_ipc, "ipc");
}

double share(double part, double whole) { return whole > 0.0 ? 100.0 * part / whole : 0.0; }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}
double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& self, const std::string& labels) {
  std::ofstream out(path);
  if (!out) return;
  out << labels << "\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"layer\":\""
        << layer_name(s.layer) << "\",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << s.duration_ns() << ",\"self_ns\":" << self[i]
        << ",\"accumulated\":" << (s.accumulated ? "true" : "false") << "}\n";
  }
}

void per_layer(Workload& w, const Options& o, Report& report, const std::string& labels) {
  const auto reps = timed_reps(w, o.seconds / 2, report);
  const RepResult& ref = reps.front();
  check_pinned(o, ref, report);
  std::vector<double> walls;
  for (const auto& r : reps) walls.push_back(r.wall_s);
  const double untraced_wall = median(walls);

  Tracing tracing;
  const RepResult t = w.run(w.threads(), &tracing);
  tracing.jsonl.flush();
  report.attempted += t.attempted;
  report.failed += t.failed;
  report.check(t.digest == ref.digest, "traced run bit-identical to the untraced run");
  if (w.threads() > 1) {
    const RepResult one = w.run(1, nullptr);
    report.attempted += one.attempted;
    report.failed += one.failed;
    report.check(one.digest == ref.digest, "1-worker run bit-identical to the timed run");
  }
  const std::string trace = tracing.trace_bytes.str();
  report.check(trace.find("\"detector_verdict\"") != std::string::npos,
               "traced run's event stream carries detector verdicts");

  const auto spans = tracing.spans.take();
  const auto self = self_times(spans);
  std::vector<double> layer_self(kNumLayers, 0.0);
  double job_total = 0.0;
  double in_jobs = 0.0;
  double sink_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double s = seconds(self[i]);
    layer_self[static_cast<std::size_t>(spans[i].layer)] += s;
    if (spans[i].name == "job") job_total += seconds(spans[i].duration_ns());
    if (spans[i].name != "batch") in_jobs += s;
    if (spans[i].layer == Layer::Obs) sink_total += seconds(spans[i].duration_ns());
  }
  const auto self_of = [&](Layer l) { return layer_self[static_cast<std::size_t>(l)]; };
  if (!w.parallel_spans()) {
    report.check(std::abs(in_jobs - job_total) <= 1e-6 * std::max(1.0, job_total),
                 "per-layer self times add up to the traced job time");
  }
  write_spans(o.out_dir + "/spans_" + o.workload + ".jsonl", spans, self, labels);

  const SimCounters& sim = tracing.sim;
  const double sim_self =
      w.parallel_spans() ? std::max(0.0, t.batch_job_s - sink_total) : self_of(Layer::Sim);
  const double core_s = self_of(Layer::Core);
  const double hw_s = self_of(Layer::Hw);
  const double obs_s = self_of(Layer::Obs);
  const double wl_s = self_of(Layer::Workloads);
  const auto& hal = tracing.hal;

  report.count("workloads.ops", tracing.opgen.ops);
  report.count("workloads.batches", tracing.opgen.batches);
  report.metric("workloads.self_s", wl_s, "s");
  report.metric("workloads.ns_per_op",
                ratio(wl_s * 1e9, static_cast<double>(tracing.opgen.ops)), "ns");
  report.metric("workloads.share_pct", share(wl_s, job_total), "%");

  report.metric("sim.self_s", sim_self, "s");
  report.metric("sim.core_mcycles", t.core_cycles / 1e6, "Mcycles");
  report.metric("sim.ns_per_core_cycle", ratio(sim_self * 1e9, t.core_cycles), "ns");
  report.metric("sim.ns_per_mem_ref",
                ratio(sim_self * 1e9, static_cast<double>(sim.l1_accesses)), "ns");
  report.metric("sim.l1.demand_hit_ratio", ratio(sim.l1_hits, sim.l1_accesses), "ratio");
  report.metric("sim.l2.demand_hit_ratio", ratio(sim.l2_hits, sim.l2_accesses), "ratio");
  report.metric("sim.llc.demand_hit_ratio", ratio(sim.llc_hits, sim.llc_accesses), "ratio");
  report.count("sim.l1.demand_accesses", sim.l1_accesses);
  report.count("sim.llc.evictions", sim.llc_evictions);
  report.metric("sim.l2.prefetch_accuracy",
                ratio(sim.l2_prefetched_used, sim.l2_prefetched_used + sim.l2_prefetched_unused),
                "ratio");
  report.count("sim.prefetches_issued", sim.prefetches_issued);
  report.metric("sim.mem.demand_gb", static_cast<double>(sim.demand_bytes) / 1e9, "GB");
  report.metric("sim.mem.prefetch_gb", static_cast<double>(sim.prefetch_bytes) / 1e9, "GB");
  report.metric("sim.mem.writeback_gb", static_cast<double>(sim.writeback_bytes) / 1e9, "GB");
  report.metric("sim.stall_l2_pending_pct", 100.0 * ratio(sim.stalls_l2_pending, sim.core_cycles),
                "%");

  const double epochs = static_cast<double>(t.epochs);
  const double policy_calls = static_cast<double>(tracing.policy_calls.load());
  report.metric("core.epochs", epochs, "count");
  report.count("core.samples", t.samples);
  report.metric("core.samples_per_epoch", ratio(static_cast<double>(t.samples), epochs), "count");
  report.metric("core.sampling_overhead_pct", t.sampling_overhead_pct, "%");
  report.metric("core.policy_calls", policy_calls, "count");
  report.metric("core.policy_s", core_s, "s");
  report.metric("core.policy_us_per_epoch", ratio(core_s * 1e6, epochs), "us");
  report.metric("core.share_pct", share(core_s, job_total), "%");

  report.count("hw.msr_writes", hal.msr_writes.load());
  report.count("hw.pmu_reads", hal.pmu_reads.load());
  report.count("hw.cat_applies", hal.cat_applies.load());
  report.count("hw.mba_applies", hal.mba_applies.load());
  report.metric("hw.hal_s", hw_s, "s");
  report.metric("hw.share_pct", share(hw_s, job_total), "%");
  report.count("hw.fault_retries", t.hw_retries);

  report.count("obs.events", tracing.sink.events());
  report.metric("obs.trace_bytes", static_cast<double>(trace.size()), "bytes");
  report.metric("obs.sink_s", obs_s, "s");
  report.metric("obs.overhead_pct", share(obs_s, t.wall_s - obs_s), "%");

  const unsigned threads = std::max(1u, ref.threads);
  const double idle = std::max(0.0, threads * ref.batch_wall_s - ref.batch_job_s);
  report.count("analysis.jobs", ref.jobs);
  report.metric("analysis.job_s", ref.batch_job_s, "s");
  report.metric("analysis.job_p50_s", median(ref.job_s), "s");
  report.metric("analysis.job_max_s",
                ref.job_s.empty() ? 0.0 : *std::max_element(ref.job_s.begin(), ref.job_s.end()),
                "s");
  report.metric("analysis.parallel_eff", ratio(ref.batch_job_s, threads * ref.batch_wall_s),
                "ratio");
  report.metric("analysis.idle_s", idle, "s");
  report.count("analysis.solo_cache.hits", ref.solo_hits);
  report.count("analysis.solo_cache.misses", ref.solo_misses);
  report.metric("analysis.solo_cache.hit_ratio",
                ratio(ref.solo_hits, ref.solo_hits + ref.solo_misses), "ratio");
  report.count("analysis.fleet.slices", ref.fleet_slices);
  report.metric("analysis.fleet.barrier_idle_s", ref.fleet_barriers ? idle : 0.0, "s");
  report.metric("analysis.fleet.serial_s",
                ref.outer_call_s > 0.0 ? std::max(0.0, ref.outer_call_s - ref.batch_wall_s) : 0.0,
                "s");
  report.count("analysis.fleet.churn_swaps", ref.churn_swaps);
  report.count("analysis.fleet.migrations_accepted", ref.migrations_accepted);
  report.count("analysis.fleet.migrations_rejected", ref.migrations_rejected);

  report.count("service.ticks", t.ticks);
  report.metric("service.tick_s", t.tick_s, "s");
  report.metric("service.attach_s", t.attach_s, "s");
  report.metric("service.detach_s", t.detach_s, "s");
  report.count("service.admitted", t.admitted);
  report.count("service.queued", t.queued);
  report.count("service.rejected", t.rejected);
  report.count("service.max_queue_depth", t.max_queue_depth);

  report.metric("trace_overhead_pct", share(t.wall_s - untraced_wall, untraced_wall), "%");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n";
    return 2;
  }
  auto workload = make_workload(opts->workload, opts->seed);
  if (!workload) {
    std::cerr << "unknown workload '" << opts->workload << "'\n";
    return 2;
  }
  const std::string simd = cmm::simd::backend_name(cmm::simd::active_backend());
  const std::string labels =
      "{\"workload\":\"" + opts->workload + "\",\"seed\":" + std::to_string(opts->seed) +
      ",\"threads\":" + std::to_string(workload->threads()) + ",\"simd\":\"" + simd +
      "\",\"trace\":" + (opts->trace ? "1" : "0") + "}";
  std::cout << "perfbench " << labels << "\n";

  Report report;
  try {
    if (opts->trace) {
      per_layer(*workload, *opts, report, labels);
    } else {
      end_to_end(*workload, *opts, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 1;
  }
  report.print(std::cout);
  std::cout << report.json() << std::endl;
  return report.failed == 0 ? 0 : 1;
}
