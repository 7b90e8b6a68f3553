// Utility layer: checks, argparse, timers, aligned buffers.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "util/aligned.hpp"
#include "util/argparse.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace g = galactos;

TEST(Check, ThrowsWithMessage) {
  try {
    GLX_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(AlignedBuffer, AlignmentAndAccess) {
  g::AlignedBuffer<double> buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % g::kSimdAlign, 0u);
  buf.fill(3.5);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 3.5);
  buf.reset(10);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(AlignedBuffer, MoveSemantics) {
  g::AlignedBuffer<int> a(5);
  a.fill(7);
  g::AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 7);
  EXPECT_EQ(a.size(), 0u);
  g::AlignedBuffer<int> c;
  c = std::move(b);
  EXPECT_EQ(c.size(), 5u);
}

TEST(ArgParser, ParsesAllForms) {
  const char* argv[] = {"prog",     "--n=100", "--rmax", "2.5",
                        "--mixed",  "--name",  "hello",  "--flag2"};
  g::ArgParser args(8, const_cast<char**>(argv));
  EXPECT_EQ(args.get<int>("n", 0), 100);
  EXPECT_DOUBLE_EQ(args.get<double>("rmax", 0.0), 2.5);
  EXPECT_EQ(args.get_str("name", ""), "hello");
  EXPECT_TRUE(args.flag("mixed"));
  EXPECT_TRUE(args.flag("flag2"));
  EXPECT_FALSE(args.flag("absent"));
  EXPECT_EQ(args.get<int>("missing", 42), 42);
  args.finish();
}

TEST(ArgParser, FinishRejectsUnknown) {
  const char* argv[] = {"prog", "--typo=1"};
  g::ArgParser args(2, const_cast<char**>(argv));
  EXPECT_THROW(args.finish(), std::logic_error);
}

TEST(ArgParser, RejectsBadValues) {
  const char* argv[] = {"prog", "--n=abc", "--m", "12abc", "--threads", "3.7",
                        "--count", "-5"};
  g::ArgParser args(8, const_cast<char**>(argv));
  EXPECT_THROW(args.get<int>("n", 0), std::logic_error);
  EXPECT_THROW(args.get<std::size_t>("m", 0), std::logic_error);
  EXPECT_THROW(args.get<int>("threads", 0), std::logic_error);
  EXPECT_THROW(args.get<std::size_t>("count", 0), std::logic_error);
  // The same token is fine where the type admits it.
  EXPECT_EQ(args.get<int>("count", 0), -5);
  EXPECT_DOUBLE_EQ(args.get<double>("threads", 0.0), 3.7);
}

TEST(ArgParser, RejectsPositional) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(g::ArgParser(2, const_cast<char**>(argv)), std::logic_error);
}

TEST(Timer, MeasuresElapsed) {
  g::Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.restart();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(PhaseTimer, AccumulatesAndReports) {
  g::PhaseTimer pt;
  pt.add("kernel", 2.0);
  pt.add("kernel", 1.0);
  pt.add("tree", 1.0);
  EXPECT_DOUBLE_EQ(pt.get("kernel"), 3.0);
  EXPECT_DOUBLE_EQ(pt.get("absent"), 0.0);
  EXPECT_DOUBLE_EQ(pt.total(), 4.0);
  const auto sorted = pt.sorted();
  EXPECT_EQ(sorted[0].first, "kernel");
  const std::string rep = pt.report();
  EXPECT_NE(rep.find("kernel"), std::string::npos);
  EXPECT_NE(rep.find("75.0%"), std::string::npos);
}

TEST(PhaseTimer, Merging) {
  g::PhaseTimer a, b;
  a.add("x", 1.0);
  b.add("x", 3.0);
  b.add("y", 2.0);
  g::PhaseTimer amax = a;
  amax.merge_max(b);
  EXPECT_DOUBLE_EQ(amax.get("x"), 3.0);
  EXPECT_DOUBLE_EQ(amax.get("y"), 2.0);
  g::PhaseTimer asum = a;
  asum.merge_sum(b);
  EXPECT_DOUBLE_EQ(asum.get("x"), 4.0);
}

TEST(ScopedPhase, AddsOnDestruction) {
  g::PhaseTimer pt;
  {
    g::ScopedPhase phase(pt, "scope");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(pt.get("scope"), 0.005);
}
