// The serving workloads' synthetic world: a StreamingCorpusGenerator corpus
// frozen into the public SnapshotData form (per-paper interest/influence
// rows, attributes, single-topic user profiles), plus the ANN section and
// the independent candidate rule the response checks use.
#ifndef PERFBENCH_SERVE_WORLD_H_
#define PERFBENCH_SERVE_WORLD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "serve/snapshot.h"

namespace perfbench {

/// Generates the snapshot data (no ANN section) from `seed`:
/// StreamingCorpusGenerator's full preset (10 years of 1e4 papers, half of
/// them after the split year, 24 topics) and 2e4 users whose 16-24-paper
/// profiles come from one topic's pre-split history.
subrec::serve::SnapshotData GenerateServeWorld(uint64_t seed);

/// Builds an HnswIndex (default options) over the influence rows of the
/// papers after the split year and stores its serialization in the data.
subrec::Status BuildAnnSection(subrec::serve::SnapshotData* data);

/// Papers after `min_year`, ascending.
std::vector<int32_t> NewPapers(const subrec::serve::SnapshotData& data,
                               int32_t min_year);

/// The documented kFiltered candidate rule at its default options,
/// recomputed independently of CandidateIndex: new papers sharing a topic
/// and a discipline with the profile; if none, new papers sharing a
/// discipline; if none, every new paper. Ascending ids.
std::vector<int32_t> FilteredCandidates(
    const subrec::serve::SnapshotData& data,
    const std::vector<int32_t>& new_papers,
    const std::vector<int32_t>& profile);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_WORLD_H_
