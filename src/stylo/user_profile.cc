#include "stylo/user_profile.h"

#include <algorithm>

namespace dehealth {

void UserProfile::AddPost(const SparseVector& post_features) {
  ++num_posts_;
  // One merge walk over both id-sorted lists bumps the attributes the user
  // already has; ids new to the user are merged in by one exact-size
  // rebuild, skipped when there are none.
  size_t missing = 0;
  auto a = attribute_weights_.begin();
  for (const auto& [id, value] : post_features.entries()) {
    if (value == 0.0) continue;
    while (a != attribute_weights_.end() && a->first < id) ++a;
    if (a != attribute_weights_.end() && a->first == id) {
      ++(a++)->second;
    } else {
      ++missing;
    }
  }
  if (missing > 0) {
    std::vector<std::pair<int, int>> merged;
    merged.reserve(attribute_weights_.size() + missing);
    a = attribute_weights_.begin();
    for (const auto& [id, value] : post_features.entries()) {
      if (value == 0.0) continue;
      while (a != attribute_weights_.end() && a->first < id)
        merged.push_back(*a++);
      if (a != attribute_weights_.end() && a->first == id) continue;
      merged.emplace_back(id, 1);
    }
    merged.insert(merged.end(), a, attribute_weights_.end());
    attribute_weights_ = std::move(merged);
  }
  sum_features_.AddVector(post_features);
}

bool UserProfile::HasAttribute(int id) const {
  return AttributeWeight(id) > 0;
}

int UserProfile::AttributeWeight(int id) const {
  const auto it = std::lower_bound(
      attribute_weights_.begin(), attribute_weights_.end(), id,
      [](const std::pair<int, int>& e, int key) { return e.first < key; });
  return it != attribute_weights_.end() && it->first == id ? it->second : 0;
}

SparseVector UserProfile::MeanFeatures() const {
  SparseVector mean = sum_features_;
  if (num_posts_ > 0) mean.Scale(1.0 / num_posts_);
  return mean;
}

double AttributeSimilarity(const UserProfile& u, const UserProfile& v) {
  const auto& a = u.attributes();
  const auto& b = v.attributes();
  if (a.empty() && b.empty()) return 0.0;

  size_t set_intersection = 0;
  long long weight_intersection = 0;  // sum of min weights over A(u) ∩ A(v)
  long long weight_union = 0;         // sum of max weights over A(u) ∪ A(v)

  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (ia->first < ib->first) {
      weight_union += ia->second;
      ++ia;
    } else if (ib->first < ia->first) {
      weight_union += ib->second;
      ++ib;
    } else {
      ++set_intersection;
      weight_intersection += std::min(ia->second, ib->second);
      weight_union += std::max(ia->second, ib->second);
      ++ia;
      ++ib;
    }
  }
  for (; ia != a.end(); ++ia) weight_union += ia->second;
  for (; ib != b.end(); ++ib) weight_union += ib->second;

  const size_t set_union = a.size() + b.size() - set_intersection;
  double sim = 0.0;
  if (set_union > 0)
    sim += static_cast<double>(set_intersection) /
           static_cast<double>(set_union);
  if (weight_union > 0)
    sim += static_cast<double>(weight_intersection) /
           static_cast<double>(weight_union);
  return sim;
}

}  // namespace dehealth
