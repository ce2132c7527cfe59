/**
 * @file
 * Reproduces Table II: the simulator parameters, printed from the
 * live default configuration so the table can never drift from the
 * code.
 */

#include <cstdio>

#include "system/experiment.hh"

int
main()
{
    using namespace oscar;
    const SystemConfig config;
    const HierarchyGeometry &g = config.geometry;
    const MemTimings &t = config.timings;

    auto kb = [](std::uint64_t bytes) {
        return std::to_string(bytes / 1024) + " KB";
    };

    std::printf("== Table II: simulator parameters ==\n\n");
    TextTable table({"Parameter", "Value"});
    table.addRow({"ISA", "UltraSPARC III (modelled)"});
    table.addRow({"Core frequency", "3.5 GHz @ 32nm (cycle-based)"});
    table.addRow({"Processor pipeline", "In-order, 1 IPC peak"});
    table.addRow({"Coherence protocol", "Directory-based MESI"});
    table.addRow({"L1 I-cache",
                  kb(g.l1i.sizeBytes) + "/" +
                      std::to_string(g.l1i.assoc) + "-way, " +
                      std::to_string(t.l1Hit) + "-cycle"});
    table.addRow({"L1 D-cache",
                  kb(g.l1d.sizeBytes) + "/" +
                      std::to_string(g.l1d.assoc) + "-way, " +
                      std::to_string(t.l1Hit) + "-cycle"});
    table.addRow({"L2 cache",
                  kb(g.l2.sizeBytes) + "/" +
                      std::to_string(g.l2.assoc) + "-way, " +
                      std::to_string(t.l2Hit) + "-cycle"});
    table.addRow({"Cache line size",
                  std::to_string(g.l2.lineBytes) + " bytes"});
    table.addRow({"Main memory",
                  std::to_string(t.memory) + "-cycle uniform latency"});
    table.addRow({"Directory lookup",
                  std::to_string(t.directoryLookup) + " cycles"});
    table.addRow({"Cache-to-cache transfer",
                  std::to_string(t.cacheToCache) + " cycles"});
    table.addRow({"Invalidation ack",
                  std::to_string(t.invalidateAck) + " cycles"});
    table.addRow({"Interconnect hop",
                  std::to_string(t.interconnectHop) + " cycles"});
    std::printf("%s", table.render().c_str());
    return 0;
}
