// Failure semantics of the distributed stack: frame integrity, fault-plan
// grammar, comm deadlines, and the chaos matrix — every injected fault
// kind at every pipeline phase must end in a structured dist:: error or a
// bit-identical result, never a hang (ctest TIMEOUT is the backstop, the
// in-test wall-clock asserts are the contract).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "dist/comm.hpp"
#include "dist/error.hpp"
#include "dist/fault.hpp"
#include "dist/frame.hpp"
#include "dist/runner.hpp"
#include "dist/tags.hpp"
#include "sim/generators.hpp"

namespace c = galactos::core;
namespace d = galactos::dist;
namespace s = galactos::sim;

namespace {

// --- frame integrity -----------------------------------------------------

std::vector<unsigned char> bytes(std::initializer_list<int> v) {
  std::vector<unsigned char> out;
  for (int x : v) out.push_back(static_cast<unsigned char>(x));
  return out;
}

TEST(Frame, RoundTripsPayloads) {
  for (const auto& payload :
       {bytes({}), bytes({42}), bytes({1, 2, 3, 0, 255, 128})}) {
    const std::vector<unsigned char> wire =
        d::detail::frame(payload.data(), payload.size());
    EXPECT_EQ(wire.size(), payload.size() + sizeof(d::detail::FrameHeader));
    std::vector<unsigned char> copy = wire;
    EXPECT_EQ(d::detail::deframe(std::move(copy), d::Channel{0, 1, 7}),
              payload);
  }
}

TEST(Frame, CorruptionSurfacesAsProtocolError) {
  const auto payload = bytes({10, 20, 30, 40});
  const std::vector<unsigned char> wire =
      d::detail::frame(payload.data(), payload.size());

  // Flip one payload byte: checksum mismatch.
  std::vector<unsigned char> flipped = wire;
  flipped.back() ^= 0x01;
  EXPECT_THROW(d::detail::deframe(std::move(flipped), d::Channel{2, 0, 9}),
               d::ProtocolError);

  // Truncate mid-payload: length mismatch.
  std::vector<unsigned char> cut(wire.begin(), wire.end() - 2);
  EXPECT_THROW(d::detail::deframe(std::move(cut), d::Channel{2, 0, 9}),
               d::ProtocolError);

  // Shorter than any header: unframed garbage.
  EXPECT_THROW(d::detail::deframe(bytes({1, 2, 3}), d::Channel{2, 0, 9}),
               d::ProtocolError);

  // Wrong magic: a payload that was never framed.
  std::vector<unsigned char> garbage(sizeof(d::detail::FrameHeader) + 4, 0x5A);
  EXPECT_THROW(d::detail::deframe(std::move(garbage), d::Channel{2, 0, 9}),
               d::ProtocolError);

  // The diagnostic names the taxonomy and the channel's tag family.
  try {
    std::vector<unsigned char> bad = wire;
    bad.back() ^= 0xFF;
    d::detail::deframe(std::move(bad), d::Channel{2, 0, d::tags::kHalo});
    FAIL() << "deframe should have thrown";
  } catch (const d::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("dist::ProtocolError"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("halo"), std::string::npos);
  }
}

// --- fault-plan grammar --------------------------------------------------

TEST(FaultPlan, ParsesTheDocumentedGrammar) {
  const d::FaultPlan plan = d::FaultPlan::parse(
      "drop:tag=halo,count=1;delay:src=0,dst=2,ms=250;"
      "corrupt:tag=4096,skip=3,count=0;stall:rank=1,phase=reduce,ms=500;"
      "crash:rank=2,phase=halo_complete;dup;seed=7");
  ASSERT_EQ(plan.rules.size(), 6u);
  EXPECT_EQ(plan.seed, 7u);

  EXPECT_EQ(plan.rules[0].kind, d::FaultRule::Kind::kDrop);
  EXPECT_EQ(plan.rules[0].tag_family, "halo");
  EXPECT_EQ(plan.rules[0].count, 1);

  EXPECT_EQ(plan.rules[1].kind, d::FaultRule::Kind::kDelay);
  EXPECT_EQ(plan.rules[1].src, 0);
  EXPECT_EQ(plan.rules[1].dst, 2);
  EXPECT_EQ(plan.rules[1].ms, 250);

  EXPECT_EQ(plan.rules[2].kind, d::FaultRule::Kind::kCorrupt);
  EXPECT_EQ(plan.rules[2].tag, 4096);
  EXPECT_EQ(plan.rules[2].skip, 3);
  EXPECT_EQ(plan.rules[2].count, 0);  // every later match

  EXPECT_EQ(plan.rules[3].kind, d::FaultRule::Kind::kStall);
  EXPECT_EQ(plan.rules[3].rank, 1);
  EXPECT_EQ(plan.rules[3].phase, d::Phase::kReduce);

  EXPECT_EQ(plan.rules[4].kind, d::FaultRule::Kind::kCrash);
  EXPECT_EQ(plan.rules[4].phase, d::Phase::kHaloComplete);

  EXPECT_EQ(plan.rules[5].kind, d::FaultRule::Kind::kDup);
  EXPECT_EQ(plan.rules[5].tag, -1);  // any channel
}

TEST(FaultPlan, RejectsMalformedSpecsLoudly) {
  // An unreadable plan must never half-apply.
  EXPECT_THROW(d::FaultPlan::parse("explode:tag=halo"), d::Error);
  EXPECT_THROW(d::FaultPlan::parse("drop:rank=1"), d::Error);       // rank is
  EXPECT_THROW(d::FaultPlan::parse("crash:tag=halo"), d::Error);    // kind-
  EXPECT_THROW(d::FaultPlan::parse("drop:ms=5"), d::Error);         // gated
  EXPECT_THROW(d::FaultPlan::parse("drop:tag=nebula"), d::Error);
  EXPECT_THROW(d::FaultPlan::parse("stall:phase=warpcore"), d::Error);
  EXPECT_THROW(d::FaultPlan::parse("drop:count=many"), d::Error);
  EXPECT_THROW(d::FaultPlan::parse("seed=xyz"), d::Error);
}

TEST(FaultPlan, TagFamiliesMatchTheWholeRange) {
  const d::FaultPlan plan = d::FaultPlan::parse("drop:tag=halo");
  EXPECT_TRUE(plan.rules[0].matches_channel(0, 1, d::tags::kHalo));
  EXPECT_TRUE(plan.rules[0].matches_channel(3, 2, d::tags::kHalo + 77));
  EXPECT_FALSE(plan.rules[0].matches_channel(0, 1, d::tags::kPartitionBase));
  EXPECT_FALSE(
      plan.rules[0].matches_channel(0, 1, d::tags::kRunnerBase));
}

TEST(FaultPlan, InstallAndClearAreVisible) {
  d::set_fault_plan(d::FaultPlan::parse("drop:tag=halo"));
  EXPECT_TRUE(d::fault_plan_active());
  d::clear_fault_plan();
  EXPECT_FALSE(d::fault_plan_active());
}

// --- deadline + chaos matrix over the full pipeline ----------------------

// Every test clears the process-wide plan on exit so suites stay isolated.
class FaultChaos : public ::testing::Test {
 protected:
  void TearDown() override { d::clear_fault_plan(); }

  static d::DistRunConfig config(double timeout_s = 0.0) {
    d::DistRunConfig cfg;
    cfg.engine.bins = c::RadialBins(2.0, 14.0, 3);
    cfg.engine.lmax = 3;
    cfg.engine.threads = 1;
    cfg.ranks = 4;
    cfg.timeout_s = timeout_s;
    return cfg;
  }

  static const s::Catalog& catalog() {
    static const s::Catalog cat = s::uniform_box(800, s::Aabb::cube(60), 99);
    return cat;
  }

  static c::ZetaResult run(const d::DistRunConfig& cfg) {
    return d::run_distributed(catalog(), cfg);
  }

  static void expect_bitwise(const c::ZetaResult& a, const c::ZetaResult& b) {
    const std::vector<double> pa = a.reduce_payload();
    const std::vector<double> pb = b.reduce_payload();
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_EQ(0,
              std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)));
    EXPECT_EQ(a.n_pairs, b.n_pairs);
  }
};

TEST_F(FaultChaos, ArmedDeadlineLeavesCleanRunsBitIdentical) {
  // Acceptance bar: deadline machinery engaged but never expiring must not
  // perturb a single bit of the result (same combine tree, same framing).
  const c::ZetaResult plain = run(config());
  const c::ZetaResult deadlined = run(config(/*timeout_s=*/30.0));
  expect_bitwise(plain, deadlined);
}

TEST_F(FaultChaos, DuplicatedAndDelayedMessagesAreHarmless) {
  const c::ZetaResult plain = run(config());
  // One halo message sent twice: the extra copy is never claimed (one
  // posted receive per halo channel) and must not corrupt anything.
  d::set_fault_plan(d::FaultPlan::parse("dup:tag=halo,count=1"));
  expect_bitwise(plain, run(config()));
  // A late reduce leg reorders arrival timing but not the combine tree.
  d::set_fault_plan(d::FaultPlan::parse("delay:tag=reduce,count=1,ms=120"));
  expect_bitwise(plain, run(config(/*timeout_s=*/30.0)));
}

TEST_F(FaultChaos, DroppedHaloMessageTimesOutNamingTheChannel) {
  d::set_fault_plan(d::FaultPlan::parse("drop:tag=halo,count=1"));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run(config(/*timeout_s=*/2.0));
    FAIL() << "a dropped halo message with a deadline must time out";
  } catch (const d::TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dist::TimeoutError"), std::string::npos) << what;
    EXPECT_NE(what.find("halo"), std::string::npos) << what;
    EXPECT_EQ(e.phase(), d::Phase::kHaloComplete);
    // The LET payloads travel on the one halo tag range.
    EXPECT_GE(e.channel().tag, d::tags::kHalo);
    EXPECT_LT(e.channel().tag, d::tags::kHaloLimit);
    EXPECT_STREQ(d::tags::family(e.channel().tag), "halo");
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(wall, 10.0) << "failure must be prompt, not a drained ctest "
                           "timeout";
}

TEST_F(FaultChaos, CorruptedPayloadSurfacesAsProtocolError) {
  d::set_fault_plan(d::FaultPlan::parse("corrupt:tag=reduce,count=1"));
  EXPECT_THROW(run(config()), d::ProtocolError);
  d::set_fault_plan(d::FaultPlan::parse("corrupt:tag=halo,count=1"));
  EXPECT_THROW(run(config()), d::ProtocolError);
}

TEST_F(FaultChaos, StalledRankTripsThePeersDeadline) {
  // Rank 1 sleeps 2 s entering reduce; with a 0.5 s deadline a peer's
  // reduce receive expires first and the whole world unwinds.
  d::set_fault_plan(
      d::FaultPlan::parse("stall:rank=1,phase=reduce,ms=2000"));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(run(config(/*timeout_s=*/0.5)), d::TimeoutError);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(wall, 10.0);
}

// One crashing rank per pipeline phase of the chaos matrix: the injected
// error must propagate out of run_distributed (the crashing rank dumps its
// partial report and post_abort()s its peers; nobody hangs).
class FaultChaosCrash : public FaultChaos,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(FaultChaosCrash, CrashUnwindsEveryRankPromptly) {
  d::set_fault_plan(d::FaultPlan::parse(
      std::string("crash:rank=1,phase=") + GetParam()));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run(config(/*timeout_s=*/10.0));
    FAIL() << "an injected crash must propagate";
  } catch (const d::Error& e) {
    EXPECT_NE(std::string(e.what()).find("crash rule fired"),
              std::string::npos)
        << e.what();
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(wall, 10.0);
}

INSTANTIATE_TEST_SUITE_P(PhaseSweep, FaultChaosCrash,
                         ::testing::Values("scatter", "halo_post",
                                           "halo_complete", "reduce"));

// A failed run must leave the partial RankReport behind: the phase the
// rank died in is recorded for the post-mortem table.
TEST_F(FaultChaos, FailureReportCarriesThePhase) {
  d::set_fault_plan(d::FaultPlan::parse("crash:rank=0,phase=reduce"));
  d::run_ranks(2, [](d::Comm& comm) {
    d::RankReport rep;
    try {
      // The deadline also arms the abort probes — that is what lets rank 1
      // see rank 0's post_abort() instead of blocking in the reduce.
      d::DistRunConfig cfg = config(/*timeout_s=*/10.0);
      cfg.ranks = 2;
      (void)d::run_rank(comm, catalog(), cfg, &rep);
    } catch (const d::Error&) {
      if (comm.rank() == 0) {
        EXPECT_EQ(rep.failure_phase, static_cast<int>(d::Phase::kReduce));
      }
      EXPECT_NE(rep.failure_phase, static_cast<int>(d::Phase::kNone));
      return;  // expected on every rank (peer abort on rank 1)
    }
    ADD_FAILURE() << "rank " << comm.rank() << " should have unwound";
  });
}

}  // namespace
