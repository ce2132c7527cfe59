/**
 * @file
 * Configuration validation and serialization.
 */

#include "system/system_config.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace oscar
{

void
SystemConfig::validate() const
{
    if (userCores == 0)
        oscar_fatal("at least one user core is required");
    if (totalCores() > 64)
        oscar_fatal("at most 64 cores are supported");
    if (offloadEnabled)
        topology.validate(userCores);
    if (policy != PolicyKind::Baseline && !offloadEnabled) {
        oscar_fatal("policy %s requires offloadEnabled",
                    policyShortName(policy));
    }
    if (policy == PolicyKind::StaticInstrumentation && !siProfile) {
        oscar_fatal("the SI policy needs an off-line service profile; "
                    "run ExperimentRunner::profileServices first");
    }
    if (measureInstructions == 0)
        oscar_fatal("measureInstructions must be positive");
    if (serving)
        serving->validate();
    if (geometry.l1i.lineBytes != geometry.l2.lineBytes ||
        geometry.l1d.lineBytes != geometry.l2.lineBytes) {
        oscar_fatal("L1/L2 line sizes must match");
    }
}

namespace
{

const char *
predictorShortName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Cam: return "cam";
      case PredictorKind::DirectMapped: return "direct-mapped";
      case PredictorKind::Infinite: return "infinite";
    }
    return "?";
}

} // namespace

void
writeConfigJson(JsonWriter &w, const SystemConfig &config,
                ConfigJsonFields fields)
{
    w.beginObject();
    w.field("workload", workloadName(config.workload));
    w.field("policy", policyShortName(config.policy));
    w.field("predictor", predictorShortName(config.predictor));
    w.field("user_cores", config.userCores);
    w.field("offload_enabled", config.offloadEnabled);
    w.field("dynamic_threshold", config.dynamicThreshold);
    w.field("static_threshold", config.staticThreshold);
    w.field("migration_one_way_cycles", config.migrationOneWayCycles);
    w.field("seed", config.seed);
    if (fields != ConfigJsonFields::ThroughSeed) {
        w.field("warmup_instructions", config.warmupInstructions);
        w.field("measure_instructions", config.measureInstructions);
    }
    // The paper's one-OS-core machine emits no topology block, so
    // every pre-existing artifact stays byte-identical.
    if (fields == ConfigJsonFields::Full && config.offloadEnabled &&
        !config.topology.isDefault()) {
        w.key("topology");
        w.beginObject();
        w.field("os_cores", config.topology.osCores);
        w.field("numa_nodes", config.topology.numaNodes);
        w.field("placement",
                osPlacementName(config.topology.placement));
        w.field("dispatch",
                osDispatchPolicyName(config.topology.dispatch));
        w.field("intra_node_hop_cycles",
                config.topology.intraNodeHopCycles);
        w.field("inter_node_hop_cycles",
                config.topology.interNodeHopCycles);
        w.field("spill_depth", static_cast<std::uint64_t>(
                                   config.topology.spillDepth));
        w.endObject();
    }
    w.endObject();
}

} // namespace oscar
