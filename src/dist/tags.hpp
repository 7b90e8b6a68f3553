// The library-wide tag layout, in one place.
//
// Tags + (src, dst) world ranks identify a channel; FIFO per channel makes
// tag reuse across sequential phases safe. Before this header each layer
// declared its constants in an anonymous namespace (partition.cpp, runner.cpp,
// comm.cpp) and the others had to *know* the ranges to stay clear of them —
// now the layout is explicit, and the failure layer (error.hpp) can name the
// channel a timeout or corruption happened on in human terms.
//
//   [1<<22, 1<<22+7)          partition collectives (one tag per phase)
//   [1<<22+7, 1<<22+7+65536)  LET halo payloads, tag = kHalo + sender rank
//   [1<<23, 1<<23+3)          runner reduce collectives
//   [1<<23+3, 1<<23+6)        session-driver world traffic
//   1<<24                     Session::run closing world barrier
//   1<<25                     reserved abort/control channel (Comm-internal)
//
// MpiTransport demands MPI_TAG_UB headroom above all of these
// (mpi_comm.cpp's kRequiredTagUb is derived from kAbort).
#pragma once

namespace galactos::dist::tags {

// --- k-d partition + halo exchange (dist/partition.cpp) ---------------------
constexpr int kPartitionBase = 1 << 22;
constexpr int kBbox = kPartitionBase + 0;
constexpr int kCount = kPartitionBase + 1;
constexpr int kSplit = kPartitionBase + 2;
constexpr int kLeftToRight = kPartitionBase + 3;
constexpr int kRightToLeft = kPartitionBase + 4;
constexpr int kDomains = kPartitionBase + 5;
constexpr int kCost = kPartitionBase + 6;
// Open-ended range: the serialized tree::LetMessage from world rank r
// travels on kHalo + r — the "halo" channel family fault plans and timeout
// messages name.
constexpr int kHalo = kPartitionBase + 7;
constexpr int kHaloLimit = kHalo + (1 << 16);  // supported rank-count ceiling
static_assert(kHaloLimit < (1 << 23), "halo tag range collides with runner");

// --- distributed runner (dist/runner.cpp) -----------------------------------
constexpr int kRunnerBase = 1 << 23;
constexpr int kReducePayload = kRunnerBase + 0;
constexpr int kReduceCounts = kRunnerBase + 1;
constexpr int kReducePairs = kRunnerBase + 2;
constexpr int kWorldPayload = kRunnerBase + 3;
constexpr int kWorldCounts = kRunnerBase + 4;
constexpr int kWorldReports = kRunnerBase + 5;

// --- comm-internal control channels (dist/comm.cpp) -------------------------
constexpr int kSessionBarrier = 1 << 24;
// Reserved peer-failure broadcast channel: a failing rank posts one framed
// message per peer here so everyone unwinds with the same structured error
// instead of timing out one channel at a time. Comm arms a silent probe on
// it when a deadline is configured; user code must stay below this tag.
constexpr int kAbort = 1 << 25;

// Human name for the tag's channel family — the vocabulary TimeoutError /
// ProtocolError use ("halo(from 3)" beats "tag 4194315" in a 2am log).
inline const char* family(int tag) {
  if (tag == kAbort) return "abort";
  if (tag == kSessionBarrier) return "session-barrier";
  if (tag >= kHalo && tag < kHaloLimit) return "halo";
  if (tag >= kPartitionBase && tag < kHalo) return "partition";
  if (tag >= kReducePayload && tag < kWorldPayload) return "reduce";
  if (tag >= kWorldPayload && tag <= kWorldReports) return "world";
  return "user";
}

}  // namespace galactos::dist::tags
