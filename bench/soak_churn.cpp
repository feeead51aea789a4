// Deterministic service-mode soak: seeded tenant churn over the
// workload catalog composed with a FaultPlan chaos schedule, run twice
// in-process and gated on bit-identity (summary JSON and trace bytes),
// churn volume, at least one full degrade->recover ladder cycle when
// faults are enabled, and every surviving tenant within its SLO floor.
//
// Knobs (environment):
//   CMM_SOAK_TICKS       service ticks per run           (default 220)
//   CMM_SOAK_SEED        churn + fault seed              (default 7)
//   CMM_SOAK_SCALE       machine capacity divisor        (default 32)
//   CMM_SOAK_FAULT_RATE  MSR-write persistent-fault rate (default 0.02;
//                        0 = fault-free soak, ladder gates skipped)
//   CMM_SOAK_SLO         per-tenant SLO floor vs solo    (default 0.20)
//   CMM_SOAK_TRACE       path for the run-1 JSONL trace  (default none)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/solo_cache.hpp"
#include "bench_common.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics_registry.hpp"
#include "service/soak.hpp"

int main() {
  using namespace cmm;
  using bench::env_double;
  using bench::env_u64;
  using bench::gate;

  service::SoakConfig cfg;
  const auto scale = static_cast<unsigned>(env_u64("CMM_SOAK_SCALE", 32));
  cfg.params.machine =
      scale <= 1 ? sim::MachineConfig::broadwell_ep() : sim::MachineConfig::scaled(scale);
  cfg.params.warmup_cycles = 200'000;
  cfg.params.run_cycles = 600'000;
  cfg.params.epochs.execution_epoch = 60'000;
  cfg.params.epochs.sampling_interval = 4'000;
  cfg.ticks = env_u64("CMM_SOAK_TICKS", 220);
  cfg.churn_seed = env_u64("CMM_SOAK_SEED", 7);
  cfg.slo = env_double("CMM_SOAK_SLO", 0.20);
  cfg.health_capacity = 256;  // exercise the ring bound under load

  const double fault_rate = env_double("CMM_SOAK_FAULT_RATE", 0.02);
  if (fault_rate > 0.0) {
    cfg.faults.seed = cfg.churn_seed;
    cfg.faults.msr_write_fail_p = fault_rate;
    cfg.faults.transient_fraction = 0.0;  // every hit is sticky -> ladder
    cfg.faults.repair_after_calls = 300;  // ...until the repair window
  }

  std::cout << "== soak_churn: service-mode churn + chaos soak ==\n"
            << "machine scale " << scale << ", " << cfg.params.machine.num_cores
            << " cores | ticks " << cfg.ticks << ", seed " << cfg.churn_seed
            << ", fault rate " << fault_rate << ", slo " << cfg.slo << "\n\n";

  // Two identical runs; the pair must be bit-identical. The global
  // solo-run memo is shared between them (hits on run 2) but its
  // statistics are process-context-dependent, so they are reported per
  // process and never enter the gated summary.
  std::ostringstream trace1;
  std::ostringstream trace2;
  obs::MetricsRegistry metrics1;
  obs::MetricsRegistry metrics2;
  service::SoakSummary s1;
  service::SoakSummary s2;
  {
    obs::JsonlTraceSink sink(trace1, 64 * 1024, /*flush_every_events=*/64);
    s1 = service::run_service(cfg, &sink, &metrics1);
  }
  {
    obs::JsonlTraceSink sink(trace2, 64 * 1024, /*flush_every_events=*/64);
    s2 = service::run_service(cfg, &sink, &metrics2);
  }
  metrics1.gauge("service.solo_cache_evictions",
                 static_cast<double>(analysis::SoloRunCache::global().evictions()));

  std::cout << "summary: " << s1.json() << "\n\n";

  bool ok = true;
  ok &= gate(s1 == s2, "repeat run summary bit-identical");
  ok &= gate(trace1.str() == trace2.str(), "repeat run trace bytes identical");
  ok &= gate(s1.ticks == cfg.ticks, "ran all requested ticks");
  ok &= gate(s1.epochs >= 200, "completed >= 200 execution epochs");
  ok &= gate(s1.attaches + s1.detaches >= 30, ">= 30 attach/detach churn events");
  ok &= gate(s1.all_within_slo, "all surviving tenants within SLO at end");
  if (fault_rate > 0.0) {
    ok &= gate(s1.injected_faults > 0, "chaos schedule injected faults");
    ok &= gate(s1.full_cycles >= 1, ">= 1 full degrade->recover ladder cycle");
  }

  const char* trace_path = std::getenv("CMM_SOAK_TRACE");
  if (trace_path != nullptr && *trace_path != '\0') {
    std::ofstream out(trace_path, std::ios::binary);
    out << trace1.str();
    std::cout << "\ntrace: " << trace_path << " (" << trace1.str().size() << " bytes)\n";
  }
  std::cout << "\nmetrics: " << metrics1.json() << "\n";
  return ok ? 0 : 1;
}
