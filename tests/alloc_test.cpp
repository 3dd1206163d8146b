// Allocation gate of the contract rule in numerics/contracts.h: a passing
// check costs no heap allocation, and neither the channel solve nor a cosim
// run formats messages eagerly. The transient preconditioner's per-step
// work (refactor + apply) allocates nothing either. The test binary replaces the global
// operator new/delete with counting versions. Sanitizer builds bring their
// own allocator, so there the counting operators are not installed and the
// gates skip; the message-text checks run everywhere.
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "chip/workload.h"
#include "core/cosim.h"
#include "core/system_config.h"
#include "flowcell/cell_array.h"
#include "numerics/contracts.h"
#include "numerics/grid.h"
#include "numerics/plane_sweep.h"
#include "thermal/model.h"
#include "thermal/stack.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BRIGHTSI_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define BRIGHTSI_ALLOC_SANITIZED 1
#endif
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocations{0};

/// Heap allocations made while `fn` runs.
template <typename F>
long long allocations_during(F&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

bool allocator_counts() {
#ifdef BRIGHTSI_ALLOC_SANITIZED
  return false;
#else
  return true;
#endif
}

}  // namespace

#ifndef BRIGHTSI_ALLOC_SANITIZED
namespace {
void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#endif

namespace co = brightsi::core;
namespace fc = brightsi::flowcell;

namespace {

template <typename F>
std::string invalid_argument_text(F&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no std::invalid_argument thrown)";
}

// ------------------------------------------------------------ contract text
TEST(ContractMessages, EnsureThrowsTheLiteralOrBuiltMessageVerbatim) {
  EXPECT_EQ(invalid_argument_text(
                [] { brightsi::ensure(false, "thermal stack and array disagree"); }),
            "thermal stack and array disagree");
  const std::string name = "chip7";
  EXPECT_EQ(invalid_argument_text(
                [&] { brightsi::ensure(false, "duplicate rack chip name: " + name); }),
            "duplicate rack chip name: chip7");
}

TEST(ContractMessages, ValueChecksKeepTheirFormattedText) {
  EXPECT_EQ(invalid_argument_text([] { brightsi::ensure_positive(-1.0, "mission step"); }),
            "mission step must be positive and finite, got -1.000000");
  EXPECT_EQ(invalid_argument_text([] {
              brightsi::ensure_positive(0.0, std::string("layer thickness (") + "die" + ")");
            }),
            "layer thickness (die) must be positive and finite, got 0.000000");
  EXPECT_EQ(invalid_argument_text([] { brightsi::ensure_non_negative(-2.5, "time"); }),
            "time must be non-negative and finite, got -2.500000");
  EXPECT_EQ(invalid_argument_text([] {
              brightsi::ensure_non_negative(std::numeric_limits<double>::infinity(),
                                            std::string("workload offset of chip 'a'"));
            }),
            "workload offset of chip 'a' must be non-negative and finite, got inf");
  EXPECT_EQ(invalid_argument_text([] {
              brightsi::ensure_finite(std::numeric_limits<double>::quiet_NaN(), "bus voltage");
            }),
            "bus voltage must be finite, got nan");
  EXPECT_EQ(invalid_argument_text([] {
              brightsi::ensure_finite(-std::numeric_limits<double>::infinity(),
                                      std::string("bus ") + "current");
            }),
            "bus current must be finite, got -inf");
}

TEST(ContractMessages, LazilyFormattedChecksKeepTheirText) {
  EXPECT_EQ(invalid_argument_text([] { brightsi::numerics::Grid2<double> grid(0, 3); }),
            "Grid2 dimensions must be positive");
  EXPECT_EQ(invalid_argument_text([] { brightsi::numerics::Grid3<double> grid(2, 3, -1); }),
            "Grid3 dimensions must be positive");
  const brightsi::chip::WorkloadTrace trace({{"busy", 1.0}});
  EXPECT_EQ(invalid_argument_text([&] { (void)trace.mean_phase(2.0, 1.0); }),
            "WorkloadTrace::mean_phase: interval end 1.000000 s does not follow its start "
            "2.000000 s");
}

// ------------------------------------------------------------ allocation gate
TEST(AllocationGate, PassingChecksAllocateNothing) {
  if (!allocator_counts()) {
    GTEST_SKIP() << "sanitizer build: the counting allocator is not installed";
  }
  // Every message is longer than the 15-character small-string buffer, so
  // building a std::string from it would allocate.
  const long long count = allocations_during([] {
    for (int i = 0; i < 100; ++i) {
      brightsi::ensure(i >= 0, "loop index must be non-negative");
      brightsi::ensure_positive(1.0 + i, "a positive quantity in watts");
      brightsi::ensure_non_negative(static_cast<double>(i), "a non-negative quantity");
      brightsi::ensure_finite(0.5 * i, "a finite quantity in kelvin");
      brightsi::numerics::Grid2<double> grid(4, 4);
      EXPECT_EQ(grid.size(), 16U);
    }
  });
  // The Grid2 storage is the only allocation of each iteration.
  EXPECT_EQ(count, 100);
}

TEST(AllocationGate, Power7ChannelSolveStaysUnderSixteenAllocations) {
  if (!allocator_counts()) {
    GTEST_SKIP() << "sanitizer build: the counting allocator is not installed";
  }
  const co::SystemConfig config = co::power7_system_config();
  const fc::FlowCellArray array(config.array_spec, config.chemistry, config.fvm);
  fc::ChannelOperatingConditions conditions;
  conditions.volumetric_flow_m3_per_s = config.array_spec.per_channel_flow();
  conditions.inlet_temperature_k = config.array_spec.inlet_temperature_k;
  conditions.axial_temperature_k = {300.0, 310.0, 320.0};
  double current = 0.0;
  const long long count = allocations_during([&] {
    current = array.channel_model().solve_at_voltage(1.0, conditions).current_a;
  });
  EXPECT_GT(current, 0.0);
  EXPECT_LE(count, 16) << "a channel solve allocated " << count << " times";
}

TEST(AllocationGate, Power7CosimRunStaysUnderTwoThousandAllocations) {
  if (!allocator_counts()) {
    GTEST_SKIP() << "sanitizer build: the counting allocator is not installed";
  }
  co::SystemConfig config = co::power7_system_config();
  config.thermal_grid.axial_cells = 16;
  const co::IntegratedMpsocSystem system(config);
  co::CoSimReport report;
  const long long count = allocations_during([&] { report = system.run(); });
  EXPECT_TRUE(report.supply.feasible);
  EXPECT_LE(count, 2000) << "a cosim run allocated " << count << " times";
}

TEST(AllocationGate, PlaneSweepRefactorAndApplyAllocateNothing) {
  if (!allocator_counts()) {
    GTEST_SKIP() << "sanitizer build: the counting allocator is not installed";
  }
  brightsi::thermal::ThermalModel::GridSettings grid;
  grid.axial_cells = 8;
  const brightsi::thermal::ThermalModel model(brightsi::thermal::power7_microchannel_stack(),
                                              brightsi::chip::kPower7DieWidthM,
                                              brightsi::chip::kPower7DieHeightM, grid);
  const brightsi::numerics::CsrMatrix& a = model.operator_pattern();
  brightsi::numerics::PlaneSweepPreconditioner sweep(a, model.nx(), model.ny(), model.nz());
  std::vector<double> r(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> z(r.size(), 0.0);
  const long long count = allocations_during([&] {
    sweep.refactor(a);
    sweep.apply(r, z);
  });
  EXPECT_GT(z.front(), 0.0);
  EXPECT_EQ(count, 0) << "refactor + apply allocated " << count << " times";
}

}  // namespace
