#include "serve/candidate_index.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_set>

#include "common/check.h"
#include "obs/metrics.h"

namespace subrec::serve {

const char* CandidateSourceName(CandidateSource source) {
  switch (source) {
    case CandidateSource::kFullPool:
      return "full_pool";
    case CandidateSource::kTopicPruned:
      return "topic_pruned";
    case CandidateSource::kDisciplineFiltered:
      return "discipline_filtered";
    case CandidateSource::kFallbackPool:
      return "fallback_pool";
    case CandidateSource::kUnknownUser:
      return "unknown_user";
    case CandidateSource::kAnnEmbedding:
      return "ann_embedding";
  }
  return "unknown";
}

CandidateIndex::CandidateIndex(const SnapshotData& data,
                               const CandidateIndexOptions& options,
                               const ann::Index* ann_index)
    : options_(options),
      profiles_(&data.profiles),
      interest_(&data.interest),
      disciplines_(data.disciplines),
      topics_(data.topics),
      num_users_(data.profiles.size()),
      slots_(std::make_unique<Slot[]>(data.profiles.size())) {
  const size_t n = data.years.size();
  SUBREC_CHECK_EQ(disciplines_.size(), n);
  SUBREC_CHECK_EQ(topics_.size(), n);
  if (options.retrieval == RetrievalMode::kAnnEmbedding) {
    SUBREC_CHECK(ann_index != nullptr)
        << "kAnnEmbedding retrieval requested without an ann::Index";
    ann_index_ = ann_index;
    obs::MetricsRegistry::Global().GetGauge("ann.ef")->Set(static_cast<double>(
        std::max(options.ann_ef, options.ann_candidates)));
  }

  in_window_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    in_window_[p] = data.years[p] > options.min_year &&
                    data.years[p] <= options.max_year;
    if (in_window_[p] != 0) new_papers_.push_back(static_cast<int32_t>(p));
  }
  for (int32_t p : new_papers_) {
    const int32_t t = topics_[static_cast<size_t>(p)];
    if (t >= 0) by_topic_[t].push_back(p);
  }
}

void CandidateIndex::Rebind(
    const std::vector<std::vector<int32_t>>* profiles,
    const la::Matrix* interest) {
  SUBREC_CHECK_EQ(profiles->size(), num_users_);
  SUBREC_CHECK_EQ(interest->rows(), in_window_.size());
  profiles_ = profiles;
  interest_ = interest;
}

bool CandidateIndex::HasProfile(int32_t user) const {
  return user >= 0 && static_cast<size_t>(user) < num_users_ &&
         !(*profiles_)[static_cast<size_t>(user)].empty();
}

const CandidateIndex::UserList& CandidateIndex::Published(size_t user) const {
  std::atomic<const UserList*>& slot = slots_[user].list;
  const UserList* list = slot.load(std::memory_order_acquire);
  if (list != nullptr) return *list;
  auto built = std::make_unique<const UserList>(Retrieve((*profiles_)[user]));
  // A racing first touch may publish first; its list is identical, and
  // every caller must see the one published address.
  if (slot.compare_exchange_strong(list, built.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *built.release();
  }
  return *list;
}

CandidateIndex::UserList CandidateIndex::Retrieve(
    const std::vector<int32_t>& profile) const {
  UserList list;
  if (ann_index_ != nullptr && AnnCandidates(profile, &list.ids)) {
    list.source = CandidateSource::kAnnEmbedding;
    return list;
  }
  // Users ANN could not serve fall through to the filtered branches
  // exactly as in kFiltered mode.
  std::unordered_set<int32_t> disciplines, topics;
  for (int32_t pid : profile) {
    disciplines.insert(disciplines_[static_cast<size_t>(pid)]);
    const int32_t t = topics_[static_cast<size_t>(pid)];
    if (t >= 0) topics.insert(t);
  }
  auto discipline_ok = [&](int32_t p) {
    return !options_.filter_disciplines ||
           disciplines.count(disciplines_[static_cast<size_t>(p)]) > 0;
  };
  std::vector<int32_t>& chosen = list.ids;
  list.source = CandidateSource::kTopicPruned;
  if (options_.prune_topics && !topics.empty()) {
    // Union of the user's topic postings, discipline-filtered.
    for (int32_t t : topics)
      for (int32_t p : PapersForTopic(t))
        if (discipline_ok(p)) chosen.push_back(p);
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
  }
  if (chosen.empty()) {
    list.source = CandidateSource::kDisciplineFiltered;
    for (int32_t p : new_papers_)
      if (discipline_ok(p)) chosen.push_back(p);
  }
  // A profile whose disciplines vanished from the window still needs
  // something to rank: fall back to the unfiltered pool.
  if (chosen.empty()) {
    list.source = CandidateSource::kFallbackPool;
    chosen = new_papers_;
  }
  return list;
}

/// Mean profile interest vector as the query, year-window filter on the
/// hits, ascending paper ids — the same output contract as the filtered
/// branches.
///
/// ServingState::FromSnapshot validates the deserialized index against the
/// snapshot before any query runs — every external id in [0, papers) and
/// index dim == embedding dim — so hit ids index `in_window_` safely here
/// and the Search status CHECK below guards programmer errors only.
bool CandidateIndex::AnnCandidates(const std::vector<int32_t>& profile,
                                   std::vector<int32_t>* out) const {
  if (interest_->rows() == 0) return false;
  const size_t dim = interest_->cols();
  std::vector<double> query(dim, 0.0);
  for (int32_t pid : profile) {
    const double* v = interest_->row_data(static_cast<size_t>(pid));
    for (size_t d = 0; d < dim; ++d) query[d] += v[d];
  }
  const double inv = 1.0 / static_cast<double>(profile.size());
  for (double& q : query) q *= inv;
  std::vector<ann::Neighbor> hits;
  ann::SearchStats stats;
  const Status status =
      ann_index_->Search(query, options_.ann_candidates,
                         std::max(options_.ann_ef, options_.ann_candidates),
                         &hits, &stats);
  SUBREC_CHECK(status.ok()) << status.ToString();
  out->reserve(hits.size());
  for (const ann::Neighbor& hit : hits)
    if (in_window_[static_cast<size_t>(hit.id)] != 0) out->push_back(hit.id);
  std::sort(out->begin(), out->end());
  // The ann.* family, cumulative across generations: retrieval work, plus
  // the hits returned and the hits the year window kept (a low kept /
  // returned ratio means the graph keeps surfacing out-of-window papers).
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const queries = registry.GetCounter("ann.queries");
  static obs::Counter* const nodes = registry.GetCounter("ann.nodes_visited");
  static obs::Counter* const evals = registry.GetCounter("ann.distance_evals");
  static obs::Counter* const returned =
      registry.GetCounter("ann.hits_returned");
  static obs::Counter* const kept = registry.GetCounter("ann.hits_kept");
  queries->Increment();
  nodes->Increment(stats.nodes_visited);
  evals->Increment(stats.distance_evals);
  returned->Increment(static_cast<int64_t>(hits.size()));
  kept->Increment(static_cast<int64_t>(out->size()));
  return !out->empty();
}

const std::vector<int32_t>& CandidateIndex::CandidatesFor(
    int32_t user) const {
  if (!HasProfile(user)) return new_papers_;
  return Published(static_cast<size_t>(user)).ids;
}

CandidateSource CandidateIndex::SourceFor(int32_t user) const {
  if (user < 0 || static_cast<size_t>(user) >= num_users_)
    return CandidateSource::kUnknownUser;
  if (!HasProfile(user)) return CandidateSource::kFullPool;
  return Published(static_cast<size_t>(user)).source;
}

const std::vector<int32_t>& CandidateIndex::PapersForTopic(
    int32_t topic) const {
  const auto it = by_topic_.find(topic);
  return it == by_topic_.end() ? empty_ : it->second;
}

}  // namespace subrec::serve
