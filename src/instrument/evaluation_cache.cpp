#include "instrument/evaluation_cache.hpp"

namespace axdse::instrument {

const Measurement* EvaluationCache::Find(const ApproxSelection& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

std::optional<Measurement> EvaluationCache::Lookup(const ApproxSelection& key) {
  const Measurement* found = Find(key);
  if (found == nullptr) return std::nullopt;
  return *found;
}

const Measurement& EvaluationCache::Insert(const ApproxSelection& key,
                                           const Measurement& value) {
  return map_[key] = value;
}

void EvaluationCache::Clear() noexcept {
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace axdse::instrument
