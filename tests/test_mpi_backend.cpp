// Real-MPI backend suite (GALACTOS_WITH_MPI builds; the MPI CI job runs it
// under `mpirun -np {2,4}` — see tests/CMakeLists.txt).
//
// Every rank runs the whole gtest suite; collective tests communicate
// through the shared Session created in main() BEFORE RUN_ALL_TESTS (MPI
// initializes once per process). Launched without mpirun the backend
// factory auto-falls back to threads and the MPI-only tests GTEST_SKIP —
// so the binary is also safe to execute directly.
//
// The headline assertion is the backend-equivalence guarantee: because
// every collective is layered on transport point-to-point sends with one
// fixed combination tree, a P-rank MPI run must reduce to a ZetaResult
// BITWISE identical to the P-rank thread-backed (minimpi) run on the same
// input — both backends execute in this one binary.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "dist/error.hpp"
#include "dist/fault.hpp"
#include "dist/mpi_comm.hpp"
#include "dist/runner.hpp"
#include "sim/generators.hpp"

namespace c = galactos::core;
namespace d = galactos::dist;
namespace s = galactos::sim;

namespace {

d::Session* g_session = nullptr;

d::Session& session() { return *g_session; }

bool on_mpi() { return session().backend() == d::Backend::kMpi; }

c::EngineConfig small_config() {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 14.0, 3);
  cfg.lmax = 3;
  cfg.threads = 1;
  return cfg;
}

void expect_bitwise_equal(const c::ZetaResult& a, const c::ZetaResult& b) {
  const std::vector<double> pa = a.reduce_payload();
  const std::vector<double> pb = b.reduce_payload();
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_FALSE(pa.empty());
  EXPECT_EQ(0, std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)))
      << "MPI and minimpi reductions differ at the bit level";
  EXPECT_EQ(a.n_primaries, b.n_primaries);
  EXPECT_EQ(a.n_pairs, b.n_pairs);
}

}  // namespace

TEST(MpiBackend, SessionMatchesLauncher) {
  if (!d::mpi_launcher_detected()) GTEST_SKIP() << "not under mpirun";
  EXPECT_TRUE(on_mpi());
  EXPECT_GE(session().size(), 1);
  EXPECT_LT(session().rank(), session().size());
}

// Inside session().run lambdas only NONFATAL expectations are safe: a
// fatal ASSERT returns early without an exception, skipping the rest of
// the communication protocol and deadlocking the peer ranks (the
// abort-on-exception path never fires). Guard instead of asserting.
TEST(MpiBackend, PointToPointOverMpi) {
  if (!on_mpi() || session().size() < 2) GTEST_SKIP() << "needs MPI np>=2";
  session().run(2, [](d::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 7, {1, 2, 3});
      const auto back = comm.recv<int>(1, 8);
      EXPECT_EQ(back.size(), 3u);
      if (back.size() == 3u) {
        EXPECT_EQ(back[2], 30);
      }
    } else {
      auto v = comm.recv<int>(0, 7);
      for (int& x : v) x *= 10;
      comm.send(0, 8, v);
    }
  });
}

TEST(MpiBackend, NonBlockingRecvOverMpi) {
  if (!on_mpi() || session().size() < 2) GTEST_SKIP() << "needs MPI np>=2";
  session().run(2, [](d::Comm& comm) {
    if (comm.rank() == 0) {
      d::RecvRequest<double> req = comm.irecv<double>(1, 42);
      comm.send<double>(1, 41, {2.5});  // release the peer
      const std::vector<double> got = req.get();
      EXPECT_EQ(got.size(), 2u);
      if (got.size() == 2u) {
        EXPECT_DOUBLE_EQ(got[1], 6.25);
      }
    } else {
      const double x = comm.recv<double>(0, 41)[0];
      comm.send<double>(0, 42, {x, x * x});
    }
  });
}

TEST(MpiBackend, CollectivesOverFullWorld) {
  if (!on_mpi()) GTEST_SKIP() << "not under mpirun";
  const int P = session().size();
  session().run(P, [P](d::Comm& comm) {
    EXPECT_EQ(comm.size(), P);
    const int sum = comm.allreduce_sum_value(comm.rank() + 1, 50);
    EXPECT_EQ(sum, P * (P + 1) / 2);
    std::vector<std::uint64_t> v{static_cast<std::uint64_t>(comm.rank())};
    const auto all = comm.allgather(v, 51);
    EXPECT_EQ(all.size(), static_cast<std::size_t>(P));
    for (int r = 0; r < P && r < static_cast<int>(all.size()); ++r) {
      const auto& part = all[static_cast<std::size_t>(r)];
      EXPECT_EQ(part.size(), 1u);
      if (part.size() == 1u) {
        EXPECT_EQ(part[0], static_cast<std::uint64_t>(r));
      }
    }
    comm.barrier(52);
  });
}

// The ISSUE-4 acceptance bar: an np-rank MPI run and an np-rank minimpi
// run reduce to identical bits on the same catalog. Swept over every rank
// count the world can host, including sub-communicator runs (np < world).
TEST(MpiBackend, RunDistributedMatchesMinimpiBitwise) {
  if (!on_mpi()) GTEST_SKIP() << "not under mpirun";
  const s::Catalog cat = s::uniform_box(900, s::Aabb::cube(65), 321);

  for (int nranks = 1; nranks <= session().size(); ++nranks) {
    d::DistRunConfig cfg;
    cfg.engine = small_config();
    cfg.ranks = nranks;

    std::vector<d::RankReport> mpi_reports;
    const c::ZetaResult over_mpi =
        d::run_distributed(session(), cat, cfg, &mpi_reports);
    // Thread-backed reference, in-process on every MPI rank.
    std::vector<d::RankReport> thr_reports;
    const c::ZetaResult over_threads =
        d::run_distributed(cat, cfg, &thr_reports);

    SCOPED_TRACE("nranks=" + std::to_string(nranks));
    expect_bitwise_equal(over_mpi, over_threads);
    ASSERT_EQ(mpi_reports.size(), thr_reports.size());
    for (std::size_t i = 0; i < mpi_reports.size(); ++i) {
      EXPECT_EQ(mpi_reports[i].owned, thr_reports[i].owned);
      EXPECT_EQ(mpi_reports[i].pairs, thr_reports[i].pairs);
    }
  }
}

// Both partition policies — through the two-pass pipeline, whose owned
// pass polls real MPI_Request progress between leaf batches — stay exact
// over MPI.
TEST(MpiBackend, PolicyAndOverlapSweepMatchesMinimpi) {
  if (!on_mpi() || session().size() < 2) GTEST_SKIP() << "needs MPI np>=2";
  const s::Catalog cat = s::uniform_box(700, s::Aabb::cube(55), 654);
  for (auto policy : {d::PartitionPolicy::kPrimaryBalanced,
                      d::PartitionPolicy::kPairWeighted}) {
    d::DistRunConfig cfg;
    cfg.engine = small_config();
    cfg.ranks = session().size();
    cfg.partition = policy;
    const c::ZetaResult over_mpi = d::run_distributed(session(), cat, cfg);
    const c::ZetaResult over_threads = d::run_distributed(cat, cfg);
    SCOPED_TRACE(std::string("policy=") +
                 (policy == d::PartitionPolicy::kPairWeighted ? "pair"
                                                              : "primary"));
    expect_bitwise_equal(over_mpi, over_threads);
  }
}

// The MPI_Isend pending list is reaped on every send/recv/post_recv, so
// even a send-heavy full pipeline run must leave it near-empty — not
// growing with the message count (the PR-7 bound this suite asserts).
TEST(MpiBackend, PendingSendListStaysBounded) {
  if (!on_mpi()) GTEST_SKIP() << "not under mpirun";
  d::DistRunConfig cfg;
  cfg.engine = small_config();
  cfg.ranks = session().size();
  const s::Catalog cat = s::uniform_box(800, s::Aabb::cube(60), 42);
  (void)d::run_distributed(session(), cat, cfg);
  // Everything a completed collective posted must have been reaped along
  // the way; only the tail of the final broadcast may still be in flight.
  EXPECT_LE(d::detail::mpi_pending_send_count(), 8u)
      << "pending MPI_Isend list is not being reaped";
}

// Deadline machinery over real MPI: a receive that can never match must
// surface dist::TimeoutError — caught INSIDE the run lambda (an escaping
// exception would MPI_Abort the whole test binary) — and the world must
// still be usable afterwards.
TEST(MpiBackend, TimedRecvOverMpiThrowsTimeout) {
  if (!on_mpi() || session().size() < 2) GTEST_SKIP() << "needs MPI np>=2";
  session().run(2, [](d::Comm& comm) {
    if (comm.rank() == 1) {
      comm.set_timeout(0.3);
      bool timed_out = false;
      try {
        (void)comm.recv<int>(0, 70);  // never sent
      } catch (const d::TimeoutError& e) {
        timed_out = true;
        EXPECT_NE(std::string(e.what()).find("dist::TimeoutError"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_TRUE(timed_out);
      comm.set_timeout(0.0);
      comm.send_value<int>(0, 71, 1);  // release the peer: world still live
      EXPECT_EQ(comm.recv_value<int>(0, 72), 2);
    } else {
      (void)comm.recv_value<int>(1, 71);
      comm.send_value<int>(0, 72, 2);
    }
  });
}

// Send-side fault injection interposes on the real MPI transport too: a
// dropped message trips the receiver's deadline, and after clearing the
// plan the same channel works again.
TEST(MpiBackend, InjectedDropOverMpiTripsDeadline) {
  if (!on_mpi() || session().size() < 2) GTEST_SKIP() << "needs MPI np>=2";
  d::set_fault_plan(d::FaultPlan::parse("drop:dst=1,tag=80,count=1"));
  session().run(2, [](d::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 80, 5);  // eaten by the plan
      (void)comm.recv_value<int>(1, 81);
      d::clear_fault_plan();
      comm.send_value<int>(1, 80, 6);  // retry after the plan is gone
    } else {
      comm.set_timeout(0.3);
      bool timed_out = false;
      try {
        (void)comm.recv_value<int>(0, 80);
      } catch (const d::TimeoutError&) {
        timed_out = true;
      }
      EXPECT_TRUE(timed_out);
      comm.set_timeout(0.0);
      comm.send_value<int>(0, 81, 1);
      EXPECT_EQ(comm.recv_value<int>(0, 80), 6);
    }
  });
  d::clear_fault_plan();
}

// A duplicated halo message over real MPI must be invisible in the result:
// the extra copy is never claimed, the reduced bits match the clean run.
TEST(MpiBackend, InjectedDupOverMpiIsHarmless) {
  if (!on_mpi() || session().size() < 2) GTEST_SKIP() << "needs MPI np>=2";
  const s::Catalog cat = s::uniform_box(700, s::Aabb::cube(55), 77);
  d::DistRunConfig cfg;
  cfg.engine = small_config();
  cfg.ranks = session().size();
  const c::ZetaResult clean = d::run_distributed(session(), cat, cfg);
  d::set_fault_plan(d::FaultPlan::parse("dup:tag=halo,count=1"));
  const c::ZetaResult dup = d::run_distributed(session(), cat, cfg);
  d::clear_fault_plan();
  expect_bitwise_equal(clean, dup);
}

// MPI ranks can still host thread-backed minimpi worlds internally (the
// reference side of the equivalence tests depends on it).
TEST(MpiBackend, ThreadWorldInsideMpiRank) {
  int sum = 0;
  d::run_ranks(3, [&](d::Comm& comm) {
    const int s = comm.allreduce_sum_value(comm.rank(), 60);
    if (comm.rank() == 0) sum = s;
  });
  EXPECT_EQ(sum, 3);
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // After InitGoogleTest (it strips --gtest_* flags) and before any test:
  // MPI_Init wants the pristine remainder of argv; every rank must create
  // the session exactly once.
  d::Session session = d::init(&argc, &argv);
  g_session = &session;
  const int rc = RUN_ALL_TESTS();
  g_session = nullptr;
  return rc;  // any failing rank exits nonzero; mpirun propagates it
}
