// Structured failure taxonomy for the distributed layer.
//
// Before this header every comm failure was either a generic
// std::runtime_error ("world aborted") or — worse — a hang: a lost message,
// a stalled peer, or a truncated payload parked RequestState::wait() and
// every collective behind it forever. The paper-scale runs (§3.2, 9636
// nodes) only work because the comm substrate fails FAST and LOUDLY; these
// types are the vocabulary for that.
//
// Every what() string starts with the exact class name ("dist::TimeoutError:
// ...") so log greps and the CI chaos leg can classify failures without
// symbolizing anything.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

#include "dist/tags.hpp"

namespace galactos::dist {

// Which stage of the distributed pipeline a failure happened in — carried
// by TimeoutError, recorded in RankReport::failure_phase, and the axis a
// FaultPlan's stall/crash rules target.
enum class Phase {
  kNone = 0,       // outside the runner pipeline (raw Comm use)
  kScatter,        // catalog slicing / pipeline entry
  kPartition,      // k-d cuts + ownership exchange
  kHaloPost,       // halo sends buffered + receives posted
  kOwnedPass,      // interior-leaf traversal (halo in flight)
  kHaloComplete,   // blocked draining the halo exchange
  kSecondaryPass,  // boundary-leaf traversal (owned + halo)
  kReduce,         // result allreduces + imbalance collectives
  kTeardown,       // after the result, during unwind/barriers
};

// Number of Phase values — sizes the per-phase byte counters in
// Comm::byte_counters() and RankReport.
constexpr int kPhaseCount = 9;

inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kNone: return "none";
    case Phase::kScatter: return "scatter";
    case Phase::kPartition: return "partition";
    case Phase::kHaloPost: return "halo_post";
    case Phase::kOwnedPass: return "owned_pass";
    case Phase::kHaloComplete: return "halo_complete";
    case Phase::kSecondaryPass: return "secondary_pass";
    case Phase::kReduce: return "reduce";
    case Phase::kTeardown: return "teardown";
  }
  return "unknown";
}

// (src, dst, tag) in WORLD ranks — the transport-level channel identity.
// src or dst of -1 means "not applicable / unknown".
struct Channel {
  int src = -1;
  int dst = -1;
  int tag = -1;

  std::string describe() const {
    std::ostringstream os;
    os << tags::family(tag) << " channel (src " << src << " -> dst " << dst
       << ", tag " << tag << ")";
    return os.str();
  }
};

// Root of the dist failure taxonomy. Derives from std::runtime_error so
// pre-existing catch sites (and tests) that expect runtime_error keep
// working; new code catches the specific kinds below.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

// A timed wait expired: the channel never delivered within the comm-wide
// deadline (Comm::set_timeout / DistRunConfig::timeout_s /
// GALACTOS_DIST_TIMEOUT_S). Names the channel, the pipeline phase, and how
// long the rank waited; `detail` carries call-site context such as how many
// peer messages were still outstanding.
class TimeoutError : public Error {
 public:
  TimeoutError(const Channel& ch, Phase phase, double waited_seconds,
               const std::string& detail = "")
      : Error(format(ch, phase, waited_seconds, detail)),
        channel_(ch), phase_(phase), waited_seconds_(waited_seconds) {}

  const Channel& channel() const { return channel_; }
  Phase phase() const { return phase_; }
  double waited_seconds() const { return waited_seconds_; }

 private:
  static std::string format(const Channel& ch, Phase phase, double waited,
                            const std::string& detail) {
    std::ostringstream os;
    os << "dist::TimeoutError: no message on " << ch.describe() << " after "
       << waited << " s (phase " << phase_name(phase) << ")";
    if (!detail.empty()) os << "; " << detail;
    return os.str();
  }

  Channel channel_;
  Phase phase_;
  double waited_seconds_;
};

// A payload arrived but failed the frame check (bad magic, truncated
// length, checksum mismatch) — corruption surfaces here instead of as a
// silently wrong zeta.
class ProtocolError : public Error {
 public:
  ProtocolError(const Channel& ch, const std::string& why)
      : Error("dist::ProtocolError: bad frame on " + ch.describe() + ": " +
              why),
        channel_(ch) {}

  const Channel& channel() const { return channel_; }

 private:
  Channel channel_;
};

// A peer rank failed and this rank was told to unwind — either via the
// reserved abort channel (tags::kAbort) or the minimpi world abort flag.
// from_rank() is the failing rank's world rank, or -1 when unknown.
class PeerAbortError : public Error {
 public:
  PeerAbortError(int from_world_rank, const std::string& reason)
      : Error(format(from_world_rank, reason)), from_(from_world_rank) {}

  int from_rank() const { return from_; }

 private:
  static std::string format(int from, const std::string& reason) {
    std::ostringstream os;
    os << "dist::PeerAbortError: ";
    if (from >= 0)
      os << "rank " << from << " aborted the job: " << reason;
    else
      os << reason;
    return os.str();
  }

  int from_;
};

// A FaultPlan crash rule fired on this rank (fault injection only — never
// thrown outside chaos testing).
class InjectedFaultError : public Error {
 public:
  explicit InjectedFaultError(const std::string& what_arg)
      : Error("dist::InjectedFaultError: " + what_arg) {}
};

}  // namespace galactos::dist
