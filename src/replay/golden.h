// The committed golden traces: small, fully seeded scenario recordings that
// the `replay` ctest label replays bit-for-bit on every machine.
//
// Three cases cover the two halves of the paper's evaluation, both wire
// paths, and the feature-level exchange:
//   - "tj2"    — KITTI-style T-junction, one cooperator, clean channel,
//                fragmented frames fed straight to the session (no
//                transport retransmission in play);
//   - "lossy4" — T&J-style parking lot, four cooperators, a faulty DSRC
//                channel (drops/dups/reorders/corruption) driven through
//                `net::Transport` with retransmission, frames captured by
//                the transport's frame tap and the fault injector's event
//                sink;
//   - "feat2"  — T&J-style parking lot, two cooperators exchanging
//                kVoxelFeatures packages delivered whole at the ReceiveWire
//                boundary (kFeaturePackage records): codec decode, ego-grid
//                alignment and pseudo-points under digest.
//
// Regenerate with `cooper_replay record <name> <out.trace>`; the bytes are
// deterministic functions of the seeds below, so a regenerated file must be
// byte-identical to the committed one unless the pipeline changed.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "replay/trace.h"

namespace cooper::replay {

struct GoldenCase {
  std::string name;      // CLI name ("tj2", "lossy4", "feat2")
  std::string filename;  // committed file name under tests/data/
};

const std::vector<GoldenCase>& GoldenCases();

/// Records the named golden case from scratch.  Returns the trace image.
Result<std::vector<std::uint8_t>> RecordGolden(const std::string& name);

}  // namespace cooper::replay
