/**
 * @file
 * Unit tests for the NUMA topology distance map and the per-core
 * bookkeeping record.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "mem/memory_system.hh"
#include "os/numa_topology.hh"

namespace oscar
{
namespace
{

TEST(TopologyDistance, DefaultDegeneratesToTheFlatModel)
{
    // The paper's machine: every distance is the plain one-way
    // migration latency, at the Conservative (5,000-cycle), Aggressive
    // (100-cycle) and zero-overhead design points alike.
    for (const Cycle one_way : {Cycle{5000}, Cycle{100}, Cycle{0}}) {
        const Topology topo(2, TopologyConfig{}, one_way);
        for (CoreId from = 0; from < 3; ++from) {
            for (CoreId to = 0; to < 3; ++to)
                EXPECT_EQ(topo.migrationOneWay(from, to), one_way);
        }
    }
}

TEST(TopologyDistance, SymmetricAndDistanceDependent)
{
    TopologyConfig cfg;
    cfg.osCores = 3;
    cfg.numaNodes = 3;
    cfg.placement = OsPlacement::Spread;
    cfg.intraNodeHopCycles = 20;
    cfg.interNodeHopCycles = 400;
    const Topology topo(3, cfg, 1000);
    // Users 0/1/2 on nodes 0/1/2; OS cores 3/4/5 on nodes 0/1/2.
    // Same node: base + intra hop.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(0)), 1020u);
    // One node apart: base + one inter-node hop.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(1)), 1400u);
    // Two nodes apart: the linear distance scales the hop cost.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(2)), 1800u);
    // Symmetric in its arguments, including OS-to-OS transfers.
    for (CoreId a = 0; a < 6; ++a) {
        for (CoreId b = 0; b < 6; ++b) {
            EXPECT_EQ(topo.migrationOneWay(a, b),
                      topo.migrationOneWay(b, a));
        }
    }
    EXPECT_EQ(topo.hops(topo.osCoreId(0), topo.osCoreId(2)), 2u);
}

TEST(TopologyDistance, ComposesWithTheInterconnectModel)
{
    // A topology whose inter-node hop is the fabric's core-to-core
    // latency (two interconnect hops, the round trip MemorySystem
    // charges per coherence request) pays exactly one such round trip
    // per crossing — the two models stay dimensionally consistent.
    const Cycle core_to_core = 2 * MemTimings{}.interconnectHop;
    TopologyConfig cfg;
    cfg.osCores = 2;
    cfg.numaNodes = 2;
    cfg.placement = OsPlacement::Spread;
    cfg.interNodeHopCycles = core_to_core;
    const Topology topo(2, cfg, 100);
    // User 0 (node 0) to OS core 1 (node 1): one crossing.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(1)),
              100u + core_to_core);
    // Same-node migration pays no fabric crossing at all.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(0)), 100u);
}

TEST(Core, RolesAndIds)
{
    Core user(0, CoreRole::User);
    Core os(1, CoreRole::Os);
    EXPECT_EQ(user.id(), 0u);
    EXPECT_EQ(user.role(), CoreRole::User);
    EXPECT_EQ(os.role(), CoreRole::Os);
}

TEST(Core, CycleBreakdownTotals)
{
    Core core(0, CoreRole::User);
    core.cycles().user = 100;
    core.cycles().os = 50;
    core.cycles().decision = 5;
    core.cycles().migration = 20;
    core.cycles().queueWait = 25;
    EXPECT_EQ(core.cycles().total(), 200u);
}

TEST(Core, UtilizationFraction)
{
    Core core(0, CoreRole::Os);
    core.cycles().os = 250;
    EXPECT_DOUBLE_EQ(core.utilization(1000), 0.25);
    EXPECT_DOUBLE_EQ(core.utilization(0), 0.0);
}

TEST(Core, RetirementAttribution)
{
    Core core(0, CoreRole::User);
    core.retireUser(100);
    core.retireOs(30);
    EXPECT_EQ(core.userInstructions(), 100u);
    EXPECT_EQ(core.osInstructions(), 30u);
    EXPECT_EQ(core.totalInstructions(), 130u);
}

TEST(Core, ResetClearsEverything)
{
    Core core(0, CoreRole::User);
    core.retireUser(10);
    core.cycles().user = 99;
    core.resetStats();
    EXPECT_EQ(core.totalInstructions(), 0u);
    EXPECT_EQ(core.cycles().total(), 0u);
}

} // namespace
} // namespace oscar
