#include "objrep/global_index.h"

#include <algorithm>

namespace gdmp::objrep {

Bytes IndexSnapshot::wire_bytes() const {
  Bytes total = 16;
  for (const RangeEntry& entry : ranges) {
    total += static_cast<Bytes>(entry.file.size()) + 24;
  }
  for (const PackedEntry& entry : packed) {
    total += static_cast<Bytes>(entry.file.size()) +
             static_cast<Bytes>(entry.objects.size()) * 8 + 8;
  }
  return total;
}

IndexSnapshot snapshot_catalog(const objstore::ObjectFileCatalog& catalog,
                               std::uint64_t generation) {
  IndexSnapshot snapshot;
  snapshot.generation = generation;
  for (const std::string& file : catalog.files()) {
    auto objects = catalog.objects_in(file);
    if (!objects.is_ok() || objects->empty()) continue;
    // Detect a contiguous single-tier run (range file) to keep the
    // snapshot interval-compressed.
    const objstore::Tier tier = objstore::tier_of(objects->front());
    bool contiguous = true;
    for (std::size_t i = 1; i < objects->size(); ++i) {
      if (objstore::tier_of((*objects)[i]) != tier ||
          objstore::event_of((*objects)[i]) !=
              objstore::event_of((*objects)[i - 1]) + 1) {
        contiguous = false;
        break;
      }
    }
    if (contiguous) {
      snapshot.ranges.push_back(IndexSnapshot::RangeEntry{
          file, tier, objstore::event_of(objects->front()),
          objstore::event_of(objects->back()) + 1});
    } else {
      snapshot.packed.push_back(
          IndexSnapshot::PackedEntry{file, std::move(*objects)});
    }
  }
  return snapshot;
}

void encode_snapshot(wire::Writer& w, const IndexSnapshot& snapshot) {
  w.u64(snapshot.generation);
  w.u32(static_cast<std::uint32_t>(snapshot.ranges.size()));
  for (const auto& entry : snapshot.ranges) {
    w.str(entry.file);
    w.u8(static_cast<std::uint8_t>(entry.tier));
    w.i64(entry.event_lo);
    w.i64(entry.event_hi);
  }
  w.u32(static_cast<std::uint32_t>(snapshot.packed.size()));
  for (const auto& entry : snapshot.packed) {
    w.str(entry.file);
    w.u32(static_cast<std::uint32_t>(entry.objects.size()));
    for (const ObjectId id : entry.objects) w.u64(id.value);
  }
}

IndexSnapshot decode_snapshot(wire::Reader& r) {
  IndexSnapshot snapshot;
  snapshot.generation = r.u64();
  const std::uint32_t ranges = r.u32();
  for (std::uint32_t i = 0; i < ranges && r.ok(); ++i) {
    IndexSnapshot::RangeEntry entry;
    entry.file = r.str();
    entry.tier = static_cast<objstore::Tier>(r.u8());
    entry.event_lo = r.i64();
    entry.event_hi = r.i64();
    snapshot.ranges.push_back(std::move(entry));
  }
  const std::uint32_t packed = r.u32();
  for (std::uint32_t i = 0; i < packed && r.ok(); ++i) {
    IndexSnapshot::PackedEntry entry;
    entry.file = r.str();
    const std::uint32_t n = r.u32();
    entry.objects.reserve(n);
    for (std::uint32_t j = 0; j < n && r.ok(); ++j) {
      entry.objects.push_back(ObjectId{r.u64()});
    }
    snapshot.packed.push_back(std::move(entry));
  }
  return snapshot;
}

void GlobalObjectIndex::update_site(const std::string& site,
                                    IndexSnapshot snapshot) {
  SiteIndex index;
  index.snapshot = std::move(snapshot);
  for (std::size_t i = 0; i < index.snapshot.ranges.size(); ++i) {
    const auto& entry = index.snapshot.ranges[i];
    index.tier_ranges[static_cast<std::size_t>(entry.tier)].emplace(
        entry.event_lo, i);
  }
  for (std::size_t i = 0; i < index.snapshot.packed.size(); ++i) {
    for (const ObjectId id : index.snapshot.packed[i].objects) {
      index.packed_index[id].push_back(i);
    }
  }
  sites_[site] = std::move(index);
}

void GlobalObjectIndex::forget_site(const std::string& site) {
  sites_.erase(site);
}

bool GlobalObjectIndex::site_has(const SiteIndex& index, ObjectId id) const {
  const objstore::Tier tier = objstore::tier_of(id);
  const std::int64_t event = objstore::event_of(id);
  const auto& ranges = index.tier_ranges[static_cast<std::size_t>(tier)];
  for (auto it = ranges.upper_bound(event); it != ranges.begin();) {
    --it;
    const auto& entry = index.snapshot.ranges[it->second];
    if (event >= entry.event_lo && event < entry.event_hi) return true;
  }
  return index.packed_index.contains(id);
}

std::vector<RemoteObject> GlobalObjectIndex::locate(ObjectId id) const {
  std::vector<RemoteObject> out;
  for (const auto& [site, index] : sites_) {
    const objstore::Tier tier = objstore::tier_of(id);
    const std::int64_t event = objstore::event_of(id);
    const auto& ranges = index.tier_ranges[static_cast<std::size_t>(tier)];
    for (auto it = ranges.upper_bound(event); it != ranges.begin();) {
      --it;
      const auto& entry = index.snapshot.ranges[it->second];
      if (event >= entry.event_lo && event < entry.event_hi) {
        out.push_back(RemoteObject{site, entry.file});
      }
    }
    if (const auto pit = index.packed_index.find(id);
        pit != index.packed_index.end()) {
      for (const std::size_t i : pit->second) {
        out.push_back(RemoteObject{site, index.snapshot.packed[i].file});
      }
    }
  }
  return out;
}

std::map<std::string, std::vector<ObjectId>> GlobalObjectIndex::plan(
    const std::vector<ObjectId>& needed) const {
  std::map<std::string, std::vector<ObjectId>> out;
  std::vector<ObjectId> remaining = needed;
  // Greedy: repeatedly assign the site holding the most of the remainder.
  while (!remaining.empty()) {
    std::string best_site;
    std::size_t best_count = 0;
    for (const auto& [site, index] : sites_) {
      if (out.contains(site)) continue;
      std::size_t count = 0;
      for (const ObjectId id : remaining) {
        if (site_has(index, id)) ++count;
      }
      if (count > best_count) {
        best_count = count;
        best_site = site;
      }
    }
    if (best_count == 0) {
      out[""].insert(out[""].end(), remaining.begin(), remaining.end());
      return out;
    }
    std::vector<ObjectId> taken;
    std::vector<ObjectId> rest;
    const SiteIndex& index = sites_.at(best_site);
    for (const ObjectId id : remaining) {
      if (site_has(index, id)) {
        taken.push_back(id);
      } else {
        rest.push_back(id);
      }
    }
    out[best_site] = std::move(taken);
    remaining = std::move(rest);
  }
  return out;
}

std::uint64_t GlobalObjectIndex::site_generation(
    const std::string& site) const {
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.snapshot.generation;
}

}  // namespace gdmp::objrep
