#pragma once
// Flat sorted property container for OOSM objects.
//
// std::map paid one node allocation (plus a key-string allocation) per
// property. PropertyMap keeps the entries in a vector sorted ascending by
// key — iteration order is identical to std::map's, so everything rendered
// from it (browser, ICAS export, persistence dumps) is byte-for-byte
// unchanged — while a build through append(), as a logged report's
// property view does, is a handful of contiguous emplacements.

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mpros/common/assert.hpp"
#include "mpros/db/value.hpp"

namespace mpros::oosm {

class PropertyMap {
 public:
  using value_type = std::pair<std::string, db::Value>;
  using const_iterator = std::vector<value_type>::const_iterator;

  PropertyMap() = default;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Insert-or-assign, keeping keys sorted.
  void set(std::string_view key, db::Value value) {
    const auto it = lower(key);
    if (it != entries_.end() && it->first == key) {
      it->second = std::move(value);
    } else {
      entries_.insert(it, value_type{std::string(key), std::move(value)});
    }
  }

  /// Bulk-build fast path: append a key known to sort strictly after every
  /// existing key — no search, no shifting. Contract-checked, so a caller
  /// emitting keys out of order fails loudly instead of corrupting lookup.
  /// The value is forwarded into a db::Value constructed in place: bulk
  /// posters pay no temporary-variant move-and-destroy per property.
  template <typename V>
  void append(std::string_view key, V&& value) {
    MPROS_EXPECTS(entries_.empty() || entries_.back().first < key);
    entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<V>(value)));
  }

  /// The value under `key`, or nullptr.
  [[nodiscard]] const db::Value* find(std::string_view key) const {
    const auto it = lower(key);
    return it != entries_.end() && it->first == key ? &it->second : nullptr;
  }

  [[nodiscard]] bool contains(std::string_view key) const {
    return find(key) != nullptr;
  }

 private:
  [[nodiscard]] std::vector<value_type>::iterator lower(std::string_view key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const value_type& e, std::string_view k) {
                              return e.first < k;
                            });
  }
  [[nodiscard]] const_iterator lower(std::string_view key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const value_type& e, std::string_view k) {
                              return e.first < k;
                            });
  }

  std::vector<value_type> entries_;
};

}  // namespace mpros::oosm
