#include "telemetry/run_report.hpp"

#include <cstdint>

#include "util/json.hpp"

namespace swhkm::telemetry {

namespace {

const char* init_name(core::InitMethod init) {
  switch (init) {
    case core::InitMethod::kFirstK:
      return "first_k";
    case core::InitMethod::kRandom:
      return "random";
    case core::InitMethod::kPlusPlus:
      return "plusplus";
  }
  return "unknown";
}

}  // namespace

void RunReport::set_result(const core::KmeansResult& result) {
  iterations = result.iterations;
  converged = result.converged;
  empty_clusters = result.empty_clusters;
  inertia = result.inertia;
  history = result.history;
  assign_kernel = result.assign_kernel;
  tile_samples = result.tile_samples;
  sample_batch = result.sample_batch;
  combine_batch = result.combine_batch;
  ldm = result.ldm;
  bound_groups = result.bound_groups;
  radius_pass = result.radius_pass;
  gated_iterations = result.gated_iterations;
}

void RunReport::write_json(std::ostream& out) const {
  util::JsonWriter w(out);
  w.begin_object();
  w.kv("run_id", std::string_view(run_id));

  w.key("workload").begin_object();
  w.kv("n", shape.n);
  w.kv("k", shape.k);
  w.kv("d", shape.d);
  w.kv("level", core::level_name(level));
  w.end_object();

  w.key("config").begin_object();
  w.kv("k", static_cast<std::uint64_t>(config.k));
  w.kv("max_iterations", static_cast<std::uint64_t>(config.max_iterations));
  w.kv("tolerance", config.tolerance);
  w.kv("init", init_name(config.init));
  w.kv("seed", config.seed);
  w.kv("tile_samples", static_cast<std::uint64_t>(tile_samples));
  w.kv("hier_collectives", config.hier_collectives);
  w.kv("sdc_checks", config.sdc_checks);
  w.kv("assign_kernel", std::string_view(assign_kernel));
  w.kv("sample_batch", static_cast<std::uint64_t>(sample_batch));
  w.kv("combine_batch", static_cast<std::uint64_t>(combine_batch));
  w.key("ldm").begin_object();
  w.kv("capacity_bytes", static_cast<std::uint64_t>(ldm.capacity_bytes));
  w.kv("high_water_bytes", static_cast<std::uint64_t>(ldm.high_water_bytes));
  w.key("buffers").begin_array();
  for (const simarch::LdmBuffer& buffer : ldm.buffers) {
    w.begin_object();
    w.kv("name", std::string_view(buffer.name));
    w.kv("bytes", static_cast<std::uint64_t>(buffer.bytes));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.kv("bound_groups", static_cast<std::uint64_t>(bound_groups));
  w.kv("radius_pass", radius_pass);
  w.kv("iteration_base", static_cast<std::uint64_t>(config.iteration_base));
  w.kv("checkpoint_every",
       static_cast<std::uint64_t>(config.checkpoint_every));
  w.end_object();

  w.kv("machine", std::string_view(machine_summary));
  w.kv("plan", std::string_view(plan_summary));

  w.key("outcome").begin_object();
  w.kv("iterations", static_cast<std::uint64_t>(iterations));
  w.kv("converged", converged);
  w.kv("empty_clusters", static_cast<std::uint64_t>(empty_clusters));
  w.kv("inertia", inertia);
  w.kv("gated_iterations", static_cast<std::uint64_t>(gated_iterations));
  w.end_object();

  w.key("history").begin_array();
  for (const auto& it : history) {
    w.begin_object();
    w.kv("max_centroid_shift", it.max_centroid_shift);
    w.kv("simulated_s", it.simulated_s);
    w.kv("prune_rate", it.prune_rate);
    w.kv("net_bytes", it.net_bytes);
    w.kv("dma_bytes", it.dma_bytes);
    w.kv("flops", it.flops);
    w.kv("net_rounds", it.net_rounds);
    w.kv("net_crossing_bytes", it.net_crossing_bytes);
    w.kv("retries", it.retries);
    w.kv("recover_s", it.recover_s);
    w.kv("sdc_retries", it.sdc_retries);
    w.kv("sdc_recomputed", it.sdc_recomputed);
    w.kv("gated", it.gated);
    w.key("phases").begin_object();
    w.kv("sample_read_s", it.sample_read_s);
    w.kv("centroid_stream_s", it.centroid_stream_s);
    w.kv("compute_s", it.compute_s);
    w.kv("mesh_comm_s", it.mesh_comm_s);
    w.kv("net_comm_s", it.net_comm_s);
    w.kv("update_s", it.update_s);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  // The modeled hierarchical-collective attribution, regrouped from the
  // flat "sim.collective.<site>.<field>" counters into one object per
  // site (group_argmin, update_rs, update_ag) — the per-run contention
  // story next to the per-iteration net_crossing_bytes in `history`.
  {
    bool any = false;
    const std::string prefix = "sim.collective.";
    std::string open_site;
    for (const auto& [name, v] : metrics.counters) {
      if (name.rfind(prefix, 0) != 0) {
        continue;
      }
      const std::string rest = name.substr(prefix.size());
      const std::size_t dot = rest.find('.');
      if (dot == std::string::npos) {
        continue;
      }
      const std::string site = rest.substr(0, dot);
      const std::string field = rest.substr(dot + 1);
      if (!any) {
        w.key("sim_collectives").begin_object();
        any = true;
      }
      if (site != open_site) {
        if (!open_site.empty()) {
          w.end_object();
        }
        w.key(site).begin_object();
        open_site = site;
      }
      w.kv(field, v);
    }
    if (!open_site.empty()) {
      w.end_object();
    }
    if (any) {
      w.end_object();
    }
  }

  w.key("faults").begin_array();
  for (const auto& f : faults) {
    w.begin_object();
    w.kv("iteration", f.iteration);
    w.kv("what", std::string_view(f.what));
    w.kv("recover_wall_s", f.wall_s);
    w.end_object();
  }
  w.end_array();

  if (has_recovery) {
    w.key("recovery").begin_object();
    w.kv("faults", static_cast<std::uint64_t>(recovery.faults));
    w.kv("retries", static_cast<std::uint64_t>(recovery.retries));
    w.kv("replans", static_cast<std::uint64_t>(recovery.replans));
    w.kv("recover_wall_s", recovery.recover_wall_s);
    w.kv("final_cgs", static_cast<std::uint64_t>(recovery.final_cgs));
    w.kv("degraded", recovery.degraded);
    w.kv("resumed_from_checkpoint", recovery.resumed_from_checkpoint);
    w.kv("sdc_detections", static_cast<std::uint64_t>(recovery.sdc_detections));
    w.kv("localized_retries",
         static_cast<std::uint64_t>(recovery.localized_retries));
    w.key("events").begin_array();
    for (const auto& e : recovery.events) {
      w.begin_object();
      w.kv("iteration", static_cast<std::uint64_t>(e.iteration));
      w.kv("what", std::string_view(e.what));
      w.kv("wall_s", e.wall_s);
      w.kv("sdc", e.sdc);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (has_critical_path) {
    w.key("critical_path");
    write_critical_path(w, critical_path);
  }

  if (has_recovery || !postmortems.empty()) {
    w.key("flight_recorder");
    write_postmortems(w, postmortems);
  }

  w.key("metrics");
  metrics.write_json(w);

  w.end_object();
  out << "\n";
}

bool reconciles(const RunReport& report) {
  const std::uint64_t counted_net =
      report.metrics.counter_or_zero("sim.net_bytes");
  const std::uint64_t counted_dma =
      report.metrics.counter_or_zero("sim.dma_bytes");
  if (counted_net == 0 && counted_dma == 0) {
    return true;  // telemetry was off (or nothing ran): nothing to check
  }
  std::uint64_t history_net = 0;
  std::uint64_t history_dma = 0;
  for (const auto& it : report.history) {
    history_net += it.net_bytes;
    history_dma += it.dma_bytes;
  }
  return history_net == counted_net && history_dma == counted_dma;
}

}  // namespace swhkm::telemetry
