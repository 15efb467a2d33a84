#include "stylo/feature_vector.h"

#include <algorithm>
#include <cmath>

namespace dehealth {

namespace {

// Finds the entry for `id` in a sorted pair vector.
auto FindEntry(std::vector<std::pair<int, double>>& v, int id) {
  return std::lower_bound(
      v.begin(), v.end(), id,
      [](const std::pair<int, double>& e, int key) { return e.first < key; });
}

auto FindEntryConst(const std::vector<std::pair<int, double>>& v, int id) {
  return std::lower_bound(
      v.begin(), v.end(), id,
      [](const std::pair<int, double>& e, int key) { return e.first < key; });
}

}  // namespace

void SparseVector::Set(int id, double value) {
  auto it = FindEntry(entries_, id);
  if (it != entries_.end() && it->first == id) {
    if (value == 0.0) {
      entries_.erase(it);
    } else {
      it->second = value;
    }
  } else if (value != 0.0) {
    entries_.insert(it, {id, value});
  }
}

void SparseVector::Add(int id, double delta) {
  if (delta == 0.0) return;
  auto it = FindEntry(entries_, id);
  if (it != entries_.end() && it->first == id) {
    it->second += delta;
    if (it->second == 0.0) entries_.erase(it);
  } else {
    entries_.insert(it, {id, delta});
  }
}

double SparseVector::Get(int id) const {
  auto it = FindEntryConst(entries_, id);
  if (it != entries_.end() && it->first == id) return it->second;
  return 0.0;
}

double SparseVector::Dot(const SparseVector& other) const {
  double acc = 0.0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->first < b->first) {
      ++a;
    } else if (b->first < a->first) {
      ++b;
    } else {
      acc += a->second * b->second;
      ++a;
      ++b;
    }
  }
  return acc;
}

double SparseVector::Norm() const {
  double acc = 0.0;
  for (const auto& [id, v] : entries_) acc += v * v;
  return std::sqrt(acc);
}

double SparseVector::Cosine(const SparseVector& other) const {
  const double na = Norm();
  const double nb = other.Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(other) / (na * nb);
}

void SparseVector::Scale(double factor) {
  if (factor == 0.0) {
    entries_.clear();
    return;
  }
  for (auto& [id, v] : entries_) v *= factor;
}

void SparseVector::AddVector(const SparseVector& other) {
  // Per id this is exactly Add(id, v) — the same single addition, the same
  // cancellation to absent — done as one merge walk over both sorted lists
  // that adds in place, then one exact-size rebuild only when ids are new
  // or sums cancelled.
  size_t missing = 0;
  size_t cancelled = 0;
  auto a = entries_.begin();
  for (const auto& [id, v] : other.entries_) {
    if (v == 0.0) continue;
    while (a != entries_.end() && a->first < id) ++a;
    if (a != entries_.end() && a->first == id) {
      a->second += v;
      if (a->second == 0.0) ++cancelled;
      ++a;
    } else {
      ++missing;
    }
  }
  if (missing == 0 && cancelled == 0) return;
  std::vector<std::pair<int, double>> merged;
  merged.reserve(entries_.size() + missing - cancelled);
  a = entries_.begin();
  const auto keep = [&merged](const std::pair<int, double>& e) {
    if (e.second != 0.0) merged.push_back(e);
  };
  for (const auto& [id, v] : other.entries_) {
    if (v == 0.0) continue;
    while (a != entries_.end() && a->first < id) keep(*a++);
    if (a != entries_.end() && a->first == id) {
      keep(*a++);
    } else {
      merged.emplace_back(id, v);
    }
  }
  for (; a != entries_.end(); ++a) keep(*a);
  entries_ = std::move(merged);
}

std::vector<double> SparseVector::ToDense(int dims) const {
  std::vector<double> dense(static_cast<size_t>(dims), 0.0);
  for (const auto& [id, v] : entries_)
    if (id >= 0 && id < dims) dense[static_cast<size_t>(id)] = v;
  return dense;
}

}  // namespace dehealth
