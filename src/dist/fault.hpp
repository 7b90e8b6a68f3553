// Deterministic fault injection for the distributed stack.
//
// A FaultPlan is a seeded list of rules; FaultInjectingTransport (a
// decorator around any Transport, installed automatically by run_ranks and
// dist::init whenever a plan is active) applies the message-level kinds on
// the SEND side — so both backends see identical, reproducible faults —
// and Comm::set_phase applies the rank-level kinds (stall/crash) at
// pipeline-phase boundaries.
//
// Selection: set the GALACTOS_FAULT_PLAN environment variable, or install
// a plan programmatically with set_fault_plan() (tests / Session hooks) —
// plans may be installed after the transport exists. With no plan active
// the decorator's cost is one uncontended mutex check per message.
//
// Grammar (semicolon-separated rules; whitespace-free):
//
//   plan    := rule (';' rule)*
//   rule    := kind (':' kv (',' kv)*)? | 'seed=' int
//   kind    := 'drop' | 'delay' | 'dup' | 'corrupt' | 'stall' | 'crash'
//   kv      := 'src='int | 'dst='int | 'tag='(int|name) | 'rank='int
//            | 'phase='name | 'count='int | 'skip='int | 'ms='int
//
// Message kinds (drop/delay/dup/corrupt) match on the (src, dst, tag)
// channel: -1 / omitted means "any", and tag accepts the symbolic family
// names from tags.hpp ('halo', 'partition', 'reduce', 'world', 'barrier').
// Rank kinds (stall/crash) match on rank= and phase= ('scatter',
// 'partition', 'halo_post', 'owned_pass', 'halo_complete',
// 'secondary_pass', 'reduce', 'teardown'). skip=N passes the first N
// matches through unharmed; count=N then fires on the next N (count=0
// means "every later match"; default count=1). ms= is the delay/stall
// duration (default 100 for delay, 30000 for stall). Counters are
// per-process (each MPI rank counts its own matches; the minimpi world
// shares one set).
//
// Examples:
//   drop:tag=halo,count=1                 lose the first halo message
//   corrupt:tag=reduce;seed=7             flip a seeded byte of a reduce leg
//   stall:rank=1,phase=reduce,ms=3000     rank 1 sleeps 3 s entering reduce
//   crash:rank=2,phase=halo_complete      rank 2 throws InjectedFaultError
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/error.hpp"
#include "dist/transport.hpp"

namespace galactos::dist {

struct FaultRule {
  enum class Kind { kDrop, kDelay, kDup, kCorrupt, kStall, kCrash };

  Kind kind = Kind::kDrop;
  // Message-kind channel match, world ranks; -1 = any. `tag_family` is the
  // symbolic form ("halo") when one was given — it matches the whole range.
  int src = -1;
  int dst = -1;
  int tag = -1;
  std::string tag_family;
  // Rank-kind match; -1 = any rank, Phase::kNone = any phase.
  int rank = -1;
  Phase phase = Phase::kNone;
  // Firing window over this rule's match sequence (see header comment).
  int skip = 0;
  int count = 1;
  // delay / stall duration.
  int ms = -1;  // -1 = kind default

  bool matches_channel(int s, int d, int t) const;
  bool matches_rank_phase(int r, Phase p) const;
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  std::uint64_t seed = 1;

  bool empty() const { return rules.empty(); }

  // Parses the grammar above; throws dist::Error with the offending token
  // on any malformed spec (an unreadable plan must never half-apply).
  static FaultPlan parse(const std::string& spec);
};

// Installs / clears the process-wide plan (match counters reset). An
// installed plan overrides GALACTOS_FAULT_PLAN; clear_fault_plan() returns
// to "no faults" even if the env var is set (tests isolate themselves).
void set_fault_plan(const FaultPlan& plan);
void clear_fault_plan();

// True when any plan (programmatic or env) is active. First call reads the
// env var; throws dist::Error if it is set but malformed.
bool fault_plan_active();

// Rank-level hook, called by Comm::set_phase on every pipeline-phase
// transition: a matching stall rule sleeps here; a matching crash rule
// throws InjectedFaultError. No-op without an active plan.
void fault_on_phase(int world_rank, Phase phase);

namespace detail {
// Wraps `inner` with the fault decorator. Always interposes — a plan may
// be installed after the transport exists; without one the decorator is a
// per-message mutex check.
std::shared_ptr<Transport> wrap_with_faults(std::shared_ptr<Transport> inner);
}  // namespace detail

}  // namespace galactos::dist
