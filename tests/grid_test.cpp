// Power-grid physics tests: DC operating points, transient behaviour,
// voltage bounds, lockstep lanes against one-lane simulators (node-order
// and factor-row reads, per-node and per-block loads), a dense-solve and a
// closed-form backward-Euler oracle, and recorders.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "chip/floorplan.hpp"
#include "grid/power_grid.hpp"
#include "grid/recorder.hpp"
#include "grid/transient.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workload/activity.hpp"
#include "workload/benchmark_suite.hpp"
#include "workload/power_model.hpp"

namespace vmap::grid {
namespace {

GridConfig small_config() {
  GridConfig c;
  c.nx = 8;
  c.ny = 6;
  c.segment_resistance = 0.5;
  c.node_capacitance = 1e-12;
  c.pad_resistance = 0.05;
  c.vdd = 1.0;
  c.pad_spacing = 4;
  return c;
}

/// Lane `lane`'s voltage at `node`, read by factor row.
double voltage(const TransientSim& sim, std::size_t node,
               std::size_t lane = 0) {
  return sim.rows()[sim.row_of(node) * sim.stride() + lane];
}

TEST(PowerGrid, GeometryRoundTrips) {
  const PowerGrid grid(small_config());
  EXPECT_EQ(grid.node_count(), 48u);
  const std::size_t id = grid.node_id(3, 2);
  const auto [x, y] = grid.node_xy(id);
  EXPECT_EQ(x, 3u);
  EXPECT_EQ(y, 2u);
  EXPECT_THROW(grid.node_id(8, 0), vmap::ContractError);
}

TEST(PowerGrid, DistanceIsMetric) {
  const PowerGrid grid(small_config());
  const std::size_t a = grid.node_id(0, 0);
  const std::size_t b = grid.node_id(3, 4);
  EXPECT_DOUBLE_EQ(grid.distance_um(a, a), 0.0);
  EXPECT_DOUBLE_EQ(grid.distance_um(a, b), grid.distance_um(b, a));
  EXPECT_NEAR(grid.distance_um(a, b), 120.0 * 5.0, 1e-9);  // 3-4-5 triangle
}

TEST(PowerGrid, HasPadsAndTheyAreMarked) {
  const PowerGrid grid(small_config());
  EXPECT_FALSE(grid.pad_nodes().empty());
  for (std::size_t pad : grid.pad_nodes()) EXPECT_TRUE(grid.is_pad(pad));
}

TEST(PowerGrid, PadArrangementsProduceValidDistinctLattices) {
  GridConfig config = small_config();
  config.ny = 10;  // tall enough for several pad rows — stagger needs >= 2
  const PowerGrid square(config);

  // kSquare is the default: same pads as a config that never mentions it.
  config.pad_arrangement = PadArrangement::kSquare;
  EXPECT_EQ(PowerGrid(config).pad_nodes(), square.pad_nodes());

  config.pad_arrangement = PadArrangement::kTriangular;
  const PowerGrid triangular(config);
  config.pad_arrangement = PadArrangement::kHexagonal;
  const PowerGrid hexagonal(config);

  // Staggered lattices shift odd pad rows, so the pad sets must differ
  // from the square lattice; hexagonal tightens the row pitch, so it
  // cannot have fewer pads than triangular.
  EXPECT_NE(triangular.pad_nodes(), square.pad_nodes());
  EXPECT_GE(hexagonal.pad_nodes().size(), triangular.pad_nodes().size());

  for (const PowerGrid* grid : {&triangular, &hexagonal}) {
    EXPECT_FALSE(grid->pad_nodes().empty());
    for (std::size_t pad : grid->pad_nodes()) EXPECT_TRUE(grid->is_pad(pad));
    EXPECT_TRUE(grid->conductance().is_symmetric());
    EXPECT_NO_THROW(linalg::Cholesky(grid->conductance().to_dense()));
  }

  EXPECT_STREQ(pad_arrangement_name(PadArrangement::kSquare), "square");
  EXPECT_STREQ(pad_arrangement_name(PadArrangement::kTriangular),
               "triangular");
  EXPECT_STREQ(pad_arrangement_name(PadArrangement::kHexagonal),
               "hexagonal");
}

TEST(PowerGrid, ConductanceIsSymmetricSpd) {
  const PowerGrid grid(small_config());
  EXPECT_TRUE(grid.conductance().is_symmetric());
  // SPD: the dense Cholesky must succeed.
  EXPECT_NO_THROW(linalg::Cholesky(grid.conductance().to_dense()));
}

TEST(PowerGrid, NoLoadMeansVddEverywhere) {
  const PowerGrid grid(small_config());
  const linalg::Vector v = grid.dc_solve(linalg::Vector(grid.node_count()));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], 1.0, 1e-10);
}

TEST(PowerGrid, DcDroopIsPositiveUnderLoad) {
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  const std::size_t victim = grid.node_id(1, 1);
  load[victim] = 0.5;  // 0.5 A draw
  const linalg::Vector v = grid.dc_solve(load);
  EXPECT_LT(v[victim], 1.0);
  // Every node sags at or below VDD; the victim sags the most.
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(v[i], 1.0 + 1e-12);
    EXPECT_GE(v[i], v[victim] - 1e-12);
  }
}

TEST(PowerGrid, DroopScalesLinearlyWithCurrent) {
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  const std::size_t victim = grid.node_id(5, 3);
  load[victim] = 0.1;
  const double droop1 = 1.0 - grid.dc_solve(load)[victim];
  load[victim] = 0.2;
  const double droop2 = 1.0 - grid.dc_solve(load)[victim];
  EXPECT_NEAR(droop2, 2.0 * droop1, 1e-10);
}

TEST(PowerGrid, DroopDecaysWithDistanceFromLoad) {
  GridConfig c = small_config();
  c.nx = 16;
  c.ny = 16;
  c.pad_spacing = 16;  // single pad region; droop dominated by the load
  const PowerGrid grid(c);
  linalg::Vector load(grid.node_count());
  const std::size_t source = grid.node_id(8, 8);
  load[source] = 0.3;
  const linalg::Vector v = grid.dc_solve(load);
  const double near = 1.0 - v[grid.node_id(9, 8)];
  const double far = 1.0 - v[grid.node_id(15, 15)];
  EXPECT_GT(near, far);
}

/// Voltage rise from the centre node to the node (dx, dy) away when 1 A is
/// drawn at the centre and 1 A injected at the other node. The load is net
/// zero, so the one pad carries no current and the rise is the mesh's
/// two-point resistance.
double two_point_resistance(std::size_t n, std::size_t dx, std::size_t dy) {
  GridConfig c;
  c.nx = n;
  c.ny = n;
  c.pad_spacing = n;  // one pad, at the centre
  const PowerGrid grid(c);
  EXPECT_EQ(grid.pad_nodes().size(), 1u);
  linalg::Vector load(grid.node_count());
  const std::size_t a = grid.node_id(n / 2, n / 2);
  const std::size_t b = grid.node_id(n / 2 + dx, n / 2 + dy);
  load[a] = 1.0;
  load[b] = -1.0;
  const linalg::Vector v = grid.dc_solve(load);
  EXPECT_NEAR(v[grid.pad_nodes()[0]], c.vdd, 1e-12);
  return v[b] - v[a];
}

TEST(PowerGrid, DcSolveMatchesInfiniteMeshTwoPointResistance) {
  // The infinite square mesh of resistors R has R(1,0) = R/2 and
  // R(1,1) = 2R/π (Atkinson & van Steenwijk, Am. J. Phys. 1999). A finite
  // n × n die differs by O(1/n²): doubling n cuts the error about 4×. At
  // R = 0.25 Ω and n = 41 the errors are 8.1e-5 Ω (axis) and 1.6e-4 Ω
  // (diagonal).
  const double r = GridConfig{}.segment_resistance;
  const double pi = std::acos(-1.0);
  struct Pair {
    std::size_t dx, dy;
    double exact;
    double bound41;
  };
  for (const Pair& p :
       {Pair{1, 0, r / 2.0, 1e-4}, Pair{1, 1, 2.0 * r / pi, 2e-4}}) {
    SCOPED_TRACE(::testing::Message() << "offset (" << p.dx << ", " << p.dy
                                      << ")");
    const double err41 =
        std::abs(two_point_resistance(41, p.dx, p.dy) - p.exact);
    const double err81 =
        std::abs(two_point_resistance(81, p.dx, p.dy) - p.exact);
    EXPECT_LT(err41, p.bound41);
    EXPECT_GT(err41 / err81, 3.5);
    EXPECT_LT(err41 / err81, 4.5);
  }
}

TEST(PowerGrid, RejectsBadConfigs) {
  GridConfig c = small_config();
  c.nx = 1;
  EXPECT_THROW(PowerGrid{c}, vmap::ContractError);
  c = small_config();
  c.segment_resistance = 0.0;
  EXPECT_THROW(PowerGrid{c}, vmap::ContractError);
  c = small_config();
  c.pad_spacing = 0;
  EXPECT_THROW(PowerGrid{c}, vmap::ContractError);
}

TEST(Transient, QuiescentGridStaysAtVdd) {
  const PowerGrid grid(small_config());
  TransientSim sim(grid, 1e-11);
  const linalg::Vector no_load(grid.node_count());
  for (int s = 0; s < 5; ++s) {
    const auto& v = sim.step(no_load);
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], 1.0, 1e-10);
  }
}

TEST(Transient, ConvergesToDcUnderConstantLoad) {
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  load[grid.node_id(2, 2)] = 0.2;
  const linalg::Vector dc = grid.dc_solve(load);

  TransientSim sim(grid, 1e-11);
  linalg::Vector v;
  for (int s = 0; s < 400; ++s) v = sim.step(load);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], dc[i], 1e-6);
}

TEST(Transient, StepResponseIsMonotoneDecay) {
  // Backward Euler on an RC grid: voltage at the loaded node decreases
  // monotonically toward the DC value after a current step.
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  const std::size_t victim = grid.node_id(4, 3);
  load[victim] = 0.3;
  TransientSim sim(grid, 1e-11);
  double previous = 1.0;
  for (int s = 0; s < 100; ++s) {
    const double now = sim.step(load)[victim];
    EXPECT_LE(now, previous + 1e-12);
    previous = now;
  }
}

TEST(Transient, VoltagesStayWithinPhysicalBounds) {
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  for (std::size_t i = 0; i < load.size(); ++i)
    load[i] = (i % 7 == 0) ? 0.05 : 0.0;
  TransientSim sim(grid, 1e-11);
  for (int s = 0; s < 50; ++s) {
    const auto& v = sim.step(load);
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_GT(v[i], 0.0);
      EXPECT_LE(v[i], 1.0 + 1e-12);
    }
  }
}

TEST(Transient, RecoveryAfterLoadRemoval) {
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  const std::size_t victim = grid.node_id(4, 3);
  load[victim] = 0.3;
  TransientSim sim(grid, 1e-11);
  for (int s = 0; s < 50; ++s) sim.step(load);
  const double drooped = voltage(sim, victim);
  const linalg::Vector no_load(grid.node_count());
  for (int s = 0; s < 400; ++s) sim.step(no_load);
  EXPECT_GT(voltage(sim, victim), drooped);
  EXPECT_NEAR(voltage(sim, victim), 1.0, 1e-6);
}

TEST(Transient, ResetRestoresQuiescentState) {
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  load[0] = 0.1;
  TransientSim sim(grid, 1e-11);
  sim.step(load);
  EXPECT_EQ(sim.steps_taken(), 1u);
  sim.reset();
  EXPECT_EQ(sim.steps_taken(), 0u);
  for (std::size_t i = 0; i < grid.node_count(); ++i)
    EXPECT_DOUBLE_EQ(voltage(sim, i), 1.0);
}

TEST(Transient, SmallerTimeStepTracksFasterDynamics) {
  // A smaller dt reaches less of the final droop in the same number of
  // steps (because less wall time has elapsed) — basic dt sanity.
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  const std::size_t victim = grid.node_id(2, 2);
  load[victim] = 0.2;
  TransientSim coarse(grid, 1e-11);
  TransientSim fine(grid, 1e-12);
  coarse.step(load);
  fine.step(load);
  EXPECT_LT(voltage(coarse, victim), voltage(fine, victim));
}

TEST(Transient, InductivePadsProduceFirstDroopUndershoot) {
  // With package inductance the grid is underdamped: after a load step the
  // voltage undershoots below its resistive DC value (the L·di/dt "first
  // droop"), then recovers. Without inductance the approach is monotone
  // from above, so the transient minimum equals the DC value.
  GridConfig c = small_config();
  c.pad_inductance = 5e-10;
  const PowerGrid inductive(c);
  const PowerGrid resistive(small_config());

  linalg::Vector load(inductive.node_count());
  const std::size_t victim = inductive.node_id(4, 3);
  load[victim] = 0.3;
  const double dc_value = resistive.dc_solve(load)[victim];

  TransientSim sim(inductive, 1e-11);
  double transient_min = 1.0;
  for (int s = 0; s < 20000; ++s)
    transient_min = std::min(transient_min, sim.step(load)[victim]);
  EXPECT_LT(transient_min, dc_value - 1e-4);
  // After settling, the inductive grid reaches the same DC point (the
  // inductor is a DC short).
  EXPECT_NEAR(voltage(sim, victim), dc_value, 1e-4);
}

TEST(Transient, PadCurrentsSatisfyKclAtSteadyState) {
  GridConfig c = small_config();
  c.pad_inductance = 1e-9;
  const PowerGrid grid(c);
  linalg::Vector load(grid.node_count());
  load[grid.node_id(2, 2)] = 0.1;
  load[grid.node_id(6, 4)] = 0.15;
  TransientSim sim(grid, 1e-11);
  for (int s = 0; s < 4000; ++s) sim.step(load);
  double pad_total = sim.pad_currents().sum();
  EXPECT_NEAR(pad_total, 0.25, 1e-5);  // pads supply the full load at DC
}

TEST(Transient, ZeroInductanceKeepsPadCurrentsStateless) {
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  load[0] = 0.1;
  TransientSim sim(grid, 1e-11);
  for (int s = 0; s < 10; ++s) sim.step(load);
  EXPECT_DOUBLE_EQ(sim.pad_currents().norm2(), 0.0);
}

// --- lockstep lanes --------------------------------------------------------

/// Restores the SIMD dispatch choice when a test ends.
class SimdGuard {
 public:
  SimdGuard() : was_(linalg::kern::simd_level()) {}
  ~SimdGuard() { linalg::kern::set_simd_level(was_); }

 private:
  linalg::kern::SimdLevel was_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Random per-step loads for one lane: sparse device-sized spikes on a
/// baseline, like block activity.
linalg::Vector random_load(std::size_t size, Rng& rng, double amps) {
  linalg::Vector load(size);
  for (std::size_t i = 0; i < size; ++i)
    load[i] = amps * (0.2 + (rng.bernoulli(0.3) ? rng.uniform() : 0.0));
  return load;
}

/// Steps a `lanes`-wide simulator and one one-lane simulator per lane on
/// the same random loads, resetting all of them part-way; every lane's
/// voltages, read in node order from step() and by factor row from rows(),
/// and its pad currents must equal its one-lane twin's byte for byte at
/// every step.
void expect_lanes_match_one_lane_sims(const PowerGrid& grid,
                                      std::size_t lanes,
                                      std::size_t load_size, double amps) {
  SimdGuard guard;
  for (bool simd : {false, true}) {
    linalg::kern::set_simd_level(simd ? linalg::kern::SimdLevel::kAvx2
                                      : linalg::kern::SimdLevel::kScalar);
    TransientSim multi(grid, 1e-11, lanes);
    std::vector<TransientSim> singles;
    singles.reserve(lanes);
    for (std::size_t c = 0; c < lanes; ++c) singles.emplace_back(grid, 1e-11);
    Rng rng(7 * lanes + (simd ? 1 : 0));
    const std::size_t n = grid.node_count();
    const std::size_t pads = grid.pad_nodes().size();
    for (int step = 0; step < 60; ++step) {
      if (step == 37) {
        multi.reset();
        for (TransientSim& single : singles) single.reset();
      }
      std::vector<linalg::Vector> loads;
      for (std::size_t c = 0; c < lanes; ++c)
        loads.push_back(random_load(load_size, rng, amps));
      const linalg::Vector& v = multi.step(loads);
      for (std::size_t c = 0; c < lanes; ++c) {
        const linalg::Vector& want = singles[c].step(loads[c]);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_bits(v[i * lanes + c], want[i]))
              << "lanes=" << lanes << " lane " << c << " node " << i
              << " step " << step << " simd=" << simd;
          ASSERT_TRUE(same_bits(voltage(multi, i, c), want[i]))
              << "factor row, lanes=" << lanes << " lane " << c << " node "
              << i << " step " << step << " simd=" << simd;
        }
        for (std::size_t p = 0; p < pads; ++p)
          ASSERT_TRUE(same_bits(multi.pad_currents()[p * lanes + c],
                                singles[c].pad_currents()[p]))
              << "pad current, lane " << c << " pad " << p;
      }
    }
    EXPECT_EQ(multi.steps_taken(), 23u);  // since the reset
  }
}

TEST(TransientLanes, LanesMatchOneLaneSimulators) {
  const PowerGrid grid(small_config());
  for (std::size_t lanes : {1, 2, 3, 4, 5, 8})
    expect_lanes_match_one_lane_sims(grid, lanes, grid.node_count(), 0.05);
}

TEST(TransientLanes, InductivePadLanesMatchOneLaneSimulators) {
  GridConfig c = small_config();
  c.pad_inductance = 5e-10;
  const PowerGrid grid(c);
  for (std::size_t lanes : {1, 3, 4, 5, 8})
    expect_lanes_match_one_lane_sims(grid, lanes, grid.node_count(), 0.05);
}

TEST(TransientLanes, TwoLayerLanesWithDeviceSizedLoadsMatch) {
  // Device-sized load vectors (zero-extended over the top layer) at the
  // magnitude the power model feeds a device node.
  GridConfig c = small_config();
  c.nx = 16;
  c.ny = 12;
  c.two_layer = true;
  c.pad_inductance = 2e-10;
  const PowerGrid grid(c);
  for (std::size_t lanes : {1, 3, 4, 5, 6, 8})
    expect_lanes_match_one_lane_sims(grid, lanes, grid.device_node_count(),
                                     0.02);
}

/// Steps a `lanes`-wide simulator on per-block loads (step_blocks(), a
/// power model with leakage) and one one-lane simulator per lane on the
/// same loads per node (PowerModel::to_node_currents, step()), resetting
/// all of them part-way. Every lane's voltages, read by factor row, and its
/// pad currents must equal its one-lane twin's byte for byte.
void expect_block_loads_match_node_loads(const GridConfig& config,
                                         std::size_t lanes) {
  const PowerGrid grid(config);
  chip::FloorplanConfig fc;
  fc.cores_x = 2;
  fc.cores_y = 1;
  fc.core_margin = 1;
  const chip::Floorplan plan(grid, fc);
  const workload::PowerModel model(plan, /*current_scale=*/3.0,
                                   /*leakage_density=*/2e-4);
  const auto suite = workload::parsec_like_suite();
  SimdGuard guard;
  for (bool simd : {false, true}) {
    linalg::kern::set_simd_level(simd ? linalg::kern::SimdLevel::kAvx2
                                      : linalg::kern::SimdLevel::kScalar);
    TransientSim multi(grid, 1e-10, lanes);
    multi.set_block_loads(plan.node_blocks(), model.leakage());
    std::vector<TransientSim> singles;
    std::vector<workload::ActivityGenerator> generators;
    for (std::size_t c = 0; c < lanes; ++c) {
      singles.emplace_back(grid, 1e-10);
      generators.emplace_back(plan, suite[c % suite.size()], Rng(40 + c));
    }
    std::vector<linalg::Vector> block_currents(
        lanes, linalg::Vector(plan.block_count()));
    linalg::Vector node_currents(grid.node_count());
    for (int step = 0; step < 50; ++step) {
      if (step == 29) {
        multi.reset();
        for (TransientSim& single : singles) single.reset();
      }
      std::vector<linalg::Vector> activity;
      for (std::size_t c = 0; c < lanes; ++c) {
        activity.push_back(generators[c].step());
        model.to_block_currents(activity[c], block_currents[c]);
      }
      multi.step_blocks(block_currents);
      for (std::size_t c = 0; c < lanes; ++c) {
        model.to_node_currents(activity[c], node_currents);
        const linalg::Vector& want = singles[c].step(node_currents);
        for (std::size_t i = 0; i < grid.node_count(); ++i)
          ASSERT_TRUE(same_bits(voltage(multi, i, c), want[i]))
              << "lanes=" << lanes << " lane " << c << " node " << i
              << " step " << step << " simd=" << simd;
        for (std::size_t p = 0; p < grid.pad_nodes().size(); ++p)
          ASSERT_TRUE(same_bits(multi.pad_currents()[p * lanes + c],
                                singles[c].pad_currents()[p]))
              << "pad current, lane " << c << " pad " << p;
      }
    }
  }
}

TEST(TransientRows, BlockLoadsMatchPerNodeLoads) {
  GridConfig resistive;
  resistive.nx = 32;
  resistive.ny = 16;
  resistive.node_capacitance = 80e-12;
  resistive.pad_resistance = 0.02;
  resistive.pad_spacing = 8;
  GridConfig inductive = resistive;
  inductive.pad_inductance = 5e-11;
  GridConfig two_layer = inductive;
  two_layer.two_layer = true;
  for (const GridConfig& config : {resistive, inductive, two_layer})
    for (std::size_t lanes : {1, 3, 4, 5, 8})
      expect_block_loads_match_node_loads(config, lanes);
}

TEST(TransientRows, BlockStepsNeedTheirMapAndOneVectorPerLane) {
  const PowerGrid grid(small_config());
  TransientSim sim(grid, 1e-11, 2);
  const std::vector<linalg::Vector> currents(2, linalg::Vector(3));
  EXPECT_THROW(sim.step_blocks(currents), vmap::ContractError);
  std::vector<std::int32_t> node_block(grid.node_count(), -1);
  node_block[5] = 2;
  sim.set_block_loads(node_block, linalg::Vector(grid.node_count()));
  EXPECT_THROW(sim.step_blocks(std::span(currents).first(1)),
               vmap::ContractError);
  EXPECT_THROW(sim.step_blocks(std::vector<linalg::Vector>(
                   2, linalg::Vector(2))),  // block 2 has no current
               vmap::ContractError);
  EXPECT_THROW(sim.set_block_loads(node_block, linalg::Vector(3)),
               vmap::ContractError);
  sim.step_blocks(currents);
  EXPECT_EQ(sim.steps_taken(), 1u);
}

TEST(TransientLanes, DroopIsLinearInTheLoad) {
  // Metamorphic: starting from the quiescent state, a lane driven by α·I
  // droops exactly α times as much as a lane driven by I (to rounding).
  const PowerGrid grid(small_config());
  const double alpha = 2.7;
  TransientSim sim(grid, 1e-11, 2);
  Rng rng(31);
  for (int step = 0; step < 50; ++step) {
    std::vector<linalg::Vector> loads(2);
    loads[0] = random_load(grid.node_count(), rng, 0.05);
    loads[1] = loads[0] * alpha;
    const linalg::Vector& v = sim.step(loads);
    for (std::size_t i = 0; i < grid.node_count(); ++i) {
      const double droop = 1.0 - v[i * 2];
      const double scaled = 1.0 - v[i * 2 + 1];
      ASSERT_GT(droop, 0.0);
      EXPECT_NEAR(scaled, alpha * droop, 1e-12 * alpha * droop)
          << "node " << i << " step " << step;
    }
  }
}

TEST(TransientLanes, StepCounterCountsLiveLanes) {
  const PowerGrid grid(small_config());
  TransientSim sim(grid, 1e-11, 5);
  const bool metrics_were_on = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Counter& steps = metrics::counter("transient.steps");
  const std::uint64_t before = steps.value();
  const std::vector<linalg::Vector> loads(5,
                                          linalg::Vector(grid.node_count()));
  for (int s = 0; s < 3; ++s) sim.step(loads);
  // Five live lanes per step; the three padding lanes of the 8-wide
  // solve add nothing.
  EXPECT_EQ(steps.value() - before, 15u);
  metrics::set_enabled(metrics_were_on);
}

TEST(TransientLanes, RejectsWrongLaneCount) {
  const PowerGrid grid(small_config());
  EXPECT_THROW(TransientSim(grid, 1e-11, 0), vmap::ContractError);
  TransientSim sim(grid, 1e-11, 2);
  EXPECT_THROW(sim.step(linalg::Vector(grid.node_count())),
               vmap::ContractError);
}

TEST(TransientLanes, SharedFactorMatchesPrivateFactors) {
  // DataCollector::collect factorizes once and hands the factor to its
  // calibration pass and to every chunk's simulator. A one-lane and a
  // three-lane simulator on one shared factor, stepped interleaved, must
  // match two that each built their own, byte for byte, over every step:
  // a solve only reads the factor. Inductive pads carry state across steps.
  GridConfig c = small_config();
  c.pad_inductance = 5e-10;
  const PowerGrid grid(c);
  SimdGuard guard;
  const auto same = [](const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (bool simd : {false, true}) {
    linalg::kern::set_simd_level(simd ? linalg::kern::SimdLevel::kAvx2
                                      : linalg::kern::SimdLevel::kScalar);
    const auto factor = TransientSim::factorize(grid, 1e-11);
    TransientSim shared_one(grid, 1e-11, factor);
    TransientSim shared_three(grid, 1e-11, factor, 3);
    TransientSim own_one(grid, 1e-11);
    TransientSim own_three(grid, 1e-11, 3);
    Rng rng(13 + (simd ? 1 : 0));
    for (int step = 0; step < 40; ++step) {
      const linalg::Vector load = random_load(grid.node_count(), rng, 0.05);
      std::vector<linalg::Vector> loads;
      for (int lane = 0; lane < 3; ++lane)
        loads.push_back(random_load(grid.node_count(), rng, 0.05));
      EXPECT_TRUE(same(shared_one.step(load), own_one.step(load)))
          << "one lane, step " << step << " simd=" << simd;
      EXPECT_TRUE(same(shared_three.step(loads), own_three.step(loads)))
          << "three lanes, step " << step << " simd=" << simd;
      EXPECT_TRUE(same(shared_one.pad_currents(), own_one.pad_currents()));
      EXPECT_TRUE(
          same(shared_three.pad_currents(), own_three.pad_currents()));
    }
  }
}

TEST(TransientLanes, RejectsAFactorOfAnotherGrid) {
  const PowerGrid grid(small_config());
  GridConfig bigger = small_config();
  bigger.nx = 10;
  const PowerGrid other(bigger);
  EXPECT_THROW(
      TransientSim(grid, 1e-11, TransientSim::factorize(other, 1e-11)),
      vmap::ContractError);
  EXPECT_THROW(TransientSim(grid, 1e-11, nullptr), vmap::ContractError);
}

/// Steps the same random loads through a `lanes`-wide simulator with the
/// SIMD kernels on and through one with them off (the kern::ref sweeps);
/// voltages and pad currents must agree byte for byte at every step.
void expect_simd_matches_scalar(const PowerGrid& grid, std::size_t lanes,
                                std::size_t load_size, double amps) {
  SimdGuard guard;
  TransientSim simd(grid, 1e-11, lanes);
  TransientSim scalar(grid, 1e-11, lanes);
  Rng rng(11 * lanes);
  for (int step = 0; step < 50; ++step) {
    std::vector<linalg::Vector> loads;
    for (std::size_t c = 0; c < lanes; ++c)
      loads.push_back(random_load(load_size, rng, amps));
    linalg::kern::set_simd_level(linalg::kern::SimdLevel::kAvx2);
    const linalg::Vector& got = simd.step(loads);
    linalg::kern::set_simd_level(linalg::kern::SimdLevel::kScalar);
    const linalg::Vector& want = scalar.step(loads);
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << "voltages, lanes=" << lanes << " step " << step;
    ASSERT_EQ(std::memcmp(simd.pad_currents().data(),
                          scalar.pad_currents().data(),
                          simd.pad_currents().size() * sizeof(double)),
              0)
        << "pad currents, lanes=" << lanes << " step " << step;
  }
}

TEST(TransientLanes, SimdStepsMatchScalarSteps) {
  // Resistive pads, inductive pads, and a two-layer grid with device-sized
  // loads, at one lane, a collect chunk's five and a wide twenty. The
  // single-layer grids are 20x16, so factor rows run past a row block.
  GridConfig resistive = small_config();
  resistive.nx = 20;
  resistive.ny = 16;
  GridConfig inductive = resistive;
  inductive.pad_inductance = 5e-10;
  GridConfig two_layer = small_config();
  two_layer.nx = 16;
  two_layer.ny = 12;
  two_layer.two_layer = true;
  two_layer.pad_inductance = 2e-10;
  const PowerGrid grids[] = {PowerGrid(resistive), PowerGrid(inductive),
                             PowerGrid(two_layer)};
  for (const PowerGrid& grid : grids)
    for (std::size_t lanes : {1, 5, 20})
      expect_simd_matches_scalar(grid, lanes, grid.device_node_count(),
                                 0.05);
}

TEST(TransientOracle, DirectStepMatchesDenseSolve) {
  // Each prefactored skyline step must equal a dense Cholesky solve of
  // (G + C/dt)·v⁺ = C/dt·v − I + pad injection, assembled here from the
  // grid's own matrices, under a point load on resistive pads.
  const PowerGrid grid(small_config());
  ASSERT_EQ(grid.config().pad_inductance, 0.0);
  const double dt = 1e-11;
  const std::size_t n = grid.node_count();
  const linalg::Vector& cap = grid.capacitance();
  linalg::Matrix a = grid.conductance().to_dense();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += cap[i] / dt;
  const linalg::Cholesky dense(a);

  const std::size_t victim = grid.node_id(3, 3);
  linalg::Vector load(n);
  load[victim] = 0.25;
  TransientSim sim(grid, dt);
  linalg::Vector want(n, grid.config().vdd);
  for (int step = 0; step < 20; ++step) {
    linalg::Vector rhs(n);
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = cap[i] / dt * want[i] - load[i] + grid.pad_injection()[i];
    want = dense.solve(rhs);
    const linalg::Vector& got = sim.step(load);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(got[i], want[i], 1e-12) << "node " << i << " step " << step;
  }
  EXPECT_LT(want[victim], grid.config().vdd - 0.01);  // the load does droop
}

// --- closed-form transient oracle -----------------------------------------
//
// With a pad at every node (square lattice, pad_spacing = 1) and the same
// load I at every node, every node sits at the same voltage, no mesh
// segment carries current, and each node is an isolated RC: C dv/dt =
// (VDD − v)/R − I. Backward Euler then gives, at every node,
//   v_{n+1} = (C/dt·v_n + VDD/R − I) / (C/dt + 1/R)
//   ⇒ v_n = V∞ + (VDD − V∞)·rⁿ,  V∞ = VDD − I·R,  r = (C/dt)/(C/dt + 1/R),
// while the exact solution is VDD − I·R·(1 − e^(−t/RC)).

GridConfig every_node_a_pad() {
  GridConfig c;
  c.nx = 7;
  c.ny = 5;
  c.segment_resistance = 0.5;
  c.pad_resistance = 0.05;
  c.node_capacitance = 1e-9;
  c.vdd = 1.0;
  c.pad_spacing = 1;
  return c;
}

TEST(TransientOracle, EveryNodeFollowsTheBackwardEulerRecurrence) {
  const GridConfig c = every_node_a_pad();
  const PowerGrid grid(c);
  ASSERT_EQ(grid.pad_nodes().size(), grid.node_count());
  const double dt = 5e-12;
  const double r_pad = c.pad_resistance, cap = c.node_capacitance;
  const double ratio = (cap / dt) / (cap / dt + 1.0 / r_pad);
  const double loads[] = {2.0, 0.5, 1.3};  // A per node, one per lane

  TransientSim one(grid, dt);
  TransientSim three(grid, dt, 3);
  std::vector<linalg::Vector> lane_loads;
  for (double amps : loads)
    lane_loads.push_back(linalg::Vector(grid.node_count(), amps));
  for (int n = 1; n <= 120; ++n) {
    const linalg::Vector& v1 = one.step(lane_loads[0]);
    const linalg::Vector& v3 = three.step(lane_loads);
    for (std::size_t lane = 0; lane < 3; ++lane) {
      const double v_inf = c.vdd - loads[lane] * r_pad;
      const double want = v_inf + (c.vdd - v_inf) * std::pow(ratio, n);
      for (std::size_t i = 0; i < grid.node_count(); ++i) {
        EXPECT_NEAR(v3[i * 3 + lane], want, 1e-12 * want)
            << "lane " << lane << " node " << i << " step " << n;
        if (lane == 0) {
          EXPECT_NEAR(v1[i], want, 1e-12 * want)
              << "one lane, node " << i << " step " << n;
        }
      }
    }
  }
}

TEST(TransientOracle, ErrorAgainstTheExponentialIsFirstOrderInDt) {
  const GridConfig c = every_node_a_pad();
  const PowerGrid grid(c);
  const double amps = 2.0;
  const double tau = c.pad_resistance * c.node_capacitance;  // 50 ps
  const double exact =
      c.vdd - amps * c.pad_resistance * (1.0 - std::exp(-1.0));  // t = tau
  const linalg::Vector load(grid.node_count(), amps);
  double previous = 0.0;
  for (int steps : {20, 40, 80, 160}) {
    TransientSim sim(grid, tau / steps);
    for (int s = 0; s < steps; ++s) sim.step(load);
    double error = 0.0;
    for (std::size_t i = 0; i < grid.node_count(); ++i)
      error = std::max(error, std::abs(voltage(sim, i) - exact));
    if (previous > 0.0) {
      EXPECT_GT(previous / error, 1.8) << steps << " steps";
      EXPECT_LT(previous / error, 2.2) << steps << " steps";
    }
    previous = error;
  }
}

TEST(TwoLayer, TopLayerNodesAppendAfterDeviceNodes) {
  GridConfig c = small_config();
  c.nx = 16;
  c.ny = 16;
  c.two_layer = true;
  c.top_pitch = 4;
  const PowerGrid grid(c);
  EXPECT_EQ(grid.device_node_count(), 256u);
  EXPECT_GT(grid.node_count(), grid.device_node_count());
  EXPECT_EQ(grid.top_nodes().size(),
            grid.node_count() - grid.device_node_count());
  for (std::size_t id : grid.top_nodes())
    EXPECT_GE(id, grid.device_node_count());
  // Pads live on the top layer.
  for (std::size_t pad : grid.pad_nodes())
    EXPECT_GE(pad, grid.device_node_count());
}

TEST(TwoLayer, NoLoadStillMeansVddEverywhere) {
  GridConfig c = small_config();
  c.nx = 16;
  c.ny = 16;
  c.two_layer = true;
  const PowerGrid grid(c);
  const linalg::Vector v = grid.dc_solve(linalg::Vector(grid.node_count()));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], 1.0, 1e-9);
}

TEST(TwoLayer, TopLayerStiffensTheGrid) {
  // The low-resistance top mesh must reduce the droop of a corner load
  // relative to the single-layer grid with the same device mesh.
  GridConfig base = small_config();
  base.nx = 16;
  base.ny = 16;
  base.pad_spacing = 8;
  GridConfig layered = base;
  layered.two_layer = true;
  layered.top_pitch = 4;

  const PowerGrid single(base);
  const PowerGrid twin(layered);
  linalg::Vector load_single(single.node_count());
  linalg::Vector load_twin(twin.node_count());
  const std::size_t victim = single.node_id(14, 14);
  load_single[victim] = 0.2;
  load_twin[victim] = 0.2;

  const double droop_single = 1.0 - single.dc_solve(load_single)[victim];
  const double droop_twin = 1.0 - twin.dc_solve(load_twin)[victim];
  EXPECT_LT(droop_twin, droop_single);
}

TEST(TwoLayer, DeviceSizedLoadVectorIsAccepted) {
  GridConfig c = small_config();
  c.nx = 16;
  c.ny = 16;
  c.two_layer = true;
  const PowerGrid grid(c);
  linalg::Vector device_load(grid.device_node_count());
  device_load[grid.node_id(3, 3)] = 0.1;
  const linalg::Vector v = grid.dc_solve(device_load);
  EXPECT_EQ(v.size(), grid.node_count());
  EXPECT_LT(v[grid.node_id(3, 3)], 1.0);

  TransientSim sim(grid, 1e-11);
  EXPECT_NO_THROW(sim.step(device_load));
}

TEST(Recorder, TraceAndMatrixAgree) {
  const PowerGrid grid(small_config());
  linalg::Vector load(grid.node_count());
  load[grid.node_id(1, 1)] = 0.2;
  TransientSim sim(grid, 1e-11);
  TraceRecorder recorder({grid.node_id(1, 1), grid.node_id(6, 4)});
  for (int s = 0; s < 10; ++s) recorder.observe(sim.step(load));
  EXPECT_EQ(recorder.samples(), 10u);
  const auto m = recorder.as_matrix();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 10u);
  const auto t0 = recorder.trace(0);
  for (std::size_t s = 0; s < 10; ++s) EXPECT_DOUBLE_EQ(t0[s], m(0, s));
  const auto mins = recorder.min_per_node();
  EXPECT_DOUBLE_EQ(mins[0], t0.min());
}

TEST(Recorder, MapSamplerKeepsStride) {
  const PowerGrid grid(small_config());
  TransientSim sim(grid, 1e-11);
  const linalg::Vector no_load(grid.node_count());
  MapSampler sampler({0, 1, 2}, /*stride=*/3, /*phase=*/1);
  for (int s = 0; s < 10; ++s) sampler.observe(sim.step(no_load));
  // Observations kept: indices 1, 4, 7 -> 3 maps.
  EXPECT_EQ(sampler.maps(), 3u);
  EXPECT_EQ(sampler.as_matrix().cols(), 3u);
}

}  // namespace
}  // namespace vmap::grid
