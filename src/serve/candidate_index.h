#ifndef SUBREC_SERVE_CANDIDATE_INDEX_H_
#define SUBREC_SERVE_CANDIDATE_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ann/index.h"
#include "la/matrix.h"
#include "serve/snapshot.h"

namespace subrec::serve {

/// How a user's candidate list is assembled on its first touch.
enum class RetrievalMode : int {
  /// Attribute filtering: year window + discipline filter + inverted-topic
  /// pruning. O(new-paper pool) per user.
  kFiltered = 0,
  /// Embedding retrieval: query the frozen ann::Index with the user's mean
  /// profile interest vector, then apply the year window. O(graph walk)
  /// per user touched — the only mode that scales past ~1e4-paper pools.
  kAnnEmbedding,
};

struct CandidateIndexOptions {
  /// Candidates are "new" papers: year strictly greater than this (the
  /// snapshot's split year by convention). INT32_MIN disables the floor.
  int32_t min_year = 0;
  /// Inclusive upper year bound — the serving-time recency window.
  int32_t max_year = INT32_MAX;
  /// Keep only candidates whose discipline appears in the user's profile.
  bool filter_disciplines = true;
  /// Prune via the inverted topic index: keep only candidates sharing a
  /// topic with the user's profile. Users whose pruned set would be empty
  /// fall back to the discipline-filtered set.
  bool prune_topics = true;
  RetrievalMode retrieval = RetrievalMode::kFiltered;
  /// kAnnEmbedding: neighbors requested per user (before year filtering).
  int ann_candidates = 256;
  /// kAnnEmbedding: search beam width (clamped up to ann_candidates).
  int ann_ef = 128;
};

/// Which retrieval branch produced a user's candidate list. Recorded when
/// the list is published and surfaced per request, so traces can attribute
/// candidate cost to the branch that actually ran.
enum class CandidateSource : int {
  /// Empty profile: the full new-paper pool, unfiltered.
  kFullPool = 0,
  /// Inverted-topic-index union, discipline-filtered.
  kTopicPruned,
  /// Topic pruning off or empty: discipline-filtered pool scan.
  kDisciplineFiltered,
  /// Every filter came back empty: unfiltered pool as a last resort.
  kFallbackPool,
  /// User id outside the profile table (served the full pool).
  kUnknownUser,
  /// ANN graph walk over the embedding index, year-window filtered.
  kAnnEmbedding,
};

/// Number of CandidateSource values — sized for per-source counter arrays.
inline constexpr int kNumCandidateSources =
    static_cast<int>(CandidateSource::kAnnEmbedding) + 1;

/// Stable static-storage name ("full_pool", "topic_pruned", ...) — safe to
/// stash in a RequestTrace without allocating.
const char* CandidateSourceName(CandidateSource source);

/// Per-user candidate sets over the frozen corpus — the online analogue of
/// what rec::BuildCandidateSet assembles offline per eval run. A coarse
/// inverted topic index drives pruning; users with no usable profile fall
/// back to the full new-paper pool.
///
/// Construction does only the work that does not depend on users: the
/// in-window pool, the inverted topic index and one empty slot per user.
/// A user's list is retrieved on the first CandidatesFor or SourceFor call
/// that names the user and is then published into the user's slot, so a
/// snapshot load costs the same however many users it profiles, and users
/// who never send a request never cost a search. Thread-safe: concurrent
/// first touches of one user may each retrieve, one publishes, and every
/// caller gets that list at one address that stays fixed for the index's
/// lifetime (RecommendService coalesces requests by that address).
class CandidateIndex {
 public:
  /// Copies the attribute arrays it filters on (years, disciplines,
  /// topics). First-touch retrieval reads `data.profiles` and
  /// `data.interest`, so `data` must outlive the index unless Rebind
  /// points it at copies that do. `ann_index` is the frozen embedding
  /// index (nullable; read on first touch, so it must outlive the index
  /// too). Checked programmer error to request RetrievalMode::kAnnEmbedding
  /// without one — ServingState::FromSnapshot turns that into a Status
  /// first. Lists do not depend on which thread retrieves them, so they are
  /// the same for any SUBREC_NUM_THREADS and any request order.
  CandidateIndex(const SnapshotData& data,
                 const CandidateIndexOptions& options,
                 const ann::Index* ann_index = nullptr);

  /// Points first-touch retrieval at `profiles` and `interest`, which must
  /// hold the values the index was built from and outlive it.
  /// ServingState::FromSnapshot calls this once the state that owns them
  /// has its final address, before any user is touched.
  void Rebind(const std::vector<std::vector<int32_t>>* profiles,
              const la::Matrix* interest);

  /// The candidate list of `user` (ascending paper ids), retrieved on the
  /// first call for that user. Unknown users and users with an empty
  /// profile get the full new-paper pool itself (AllNewPapers()).
  const std::vector<int32_t>& CandidatesFor(int32_t user) const;

  /// The retrieval branch that built `user`'s list (kUnknownUser for ids
  /// outside the profile table); retrieves the list if not yet published.
  CandidateSource SourceFor(int32_t user) const;

  /// All in-window new papers, ascending.
  const std::vector<int32_t>& AllNewPapers() const { return new_papers_; }

  /// Inverted index: in-window new papers of one topic, ascending.
  const std::vector<int32_t>& PapersForTopic(int32_t topic) const;

  size_t num_users() const { return num_users_; }
  size_t num_new_papers() const { return new_papers_.size(); }

 private:
  /// One user's retrieved list and the branch that produced it.
  struct UserList {
    std::vector<int32_t> ids;
    CandidateSource source = CandidateSource::kTopicPruned;
  };
  /// Null until the user's first touch publishes a list; owns it after.
  struct Slot {
    std::atomic<const UserList*> list{nullptr};
    ~Slot() { delete list.load(std::memory_order_relaxed); }
  };

  /// True when `user` names a profile-table row with a non-empty profile.
  bool HasProfile(int32_t user) const;
  /// The published list of a user with a non-empty profile, retrieving
  /// and publishing it first if this is the user's first touch.
  const UserList& Published(size_t user) const;
  /// The retrieval fall-through: ANN (when configured), then topic-pruned,
  /// then discipline-filtered, then the unfiltered pool.
  UserList Retrieve(const std::vector<int32_t>& profile) const;
  /// kAnnEmbedding branch: false (and `out` empty) when every hit fell
  /// outside the year window.
  bool AnnCandidates(const std::vector<int32_t>& profile,
                     std::vector<int32_t>* out) const;

  CandidateIndexOptions options_;
  /// Non-null exactly when retrieval is kAnnEmbedding.
  const ann::Index* ann_index_ = nullptr;
  const std::vector<std::vector<int32_t>>* profiles_ = nullptr;
  const la::Matrix* interest_ = nullptr;
  /// Per paper: 1 when its year is inside the serving window.
  std::vector<uint8_t> in_window_;
  std::vector<int32_t> disciplines_;
  std::vector<int32_t> topics_;
  std::vector<int32_t> new_papers_;
  /// Keyed by topic id rather than indexed by it: a snapshot's topic ids
  /// are external input, and one huge id must not size a huge table.
  std::unordered_map<int32_t, std::vector<int32_t>> by_topic_;
  size_t num_users_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::vector<int32_t> empty_;
};

}  // namespace subrec::serve

#endif  // SUBREC_SERVE_CANDIDATE_INDEX_H_
