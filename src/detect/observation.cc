#include "detect/observation.h"

#include <algorithm>

namespace asppi::detect {

std::vector<std::pair<Asn, AsPath>> ExpandObservedPath(Asn monitor,
                                                       const AsPath& path) {
  std::vector<std::pair<Asn, AsPath>> entries;
  if (path.Empty()) return entries;
  auto seen = [&entries](Asn owner) {
    return std::any_of(entries.begin(), entries.end(),
                       [owner](const auto& e) { return e.first == owner; });
  };
  entries.emplace_back(monitor, path);
  // Suffix expansion: decompose the path into runs [(a1,c1)…(ak,ck)];
  // the AS of run i holds the route formed by runs i+1…k.
  const std::span<const Asn> hops = path.Hops();
  std::size_t i = 0;
  while (i < hops.size()) {
    Asn as = hops[i];
    std::size_t j = i;
    while (j < hops.size() && hops[j] == as) ++j;
    if (j < hops.size() && !seen(as)) {
      entries.emplace_back(as, AsPath(hops.subspan(j)));
    }
    i = j;
  }
  return entries;
}

RouteSnapshot RouteSnapshot::FromMonitors(
    const std::vector<std::pair<Asn, AsPath>>& monitor_paths,
    ConflictPolicy policy) {
  RouteSnapshot snapshot;
  for (const auto& [monitor, path] : monitor_paths) {
    for (auto& [owner, route] : ExpandObservedPath(monitor, path)) {
      if (policy == ConflictPolicy::kFirstObserved) {
        snapshot.routes_.emplace(owner, std::move(route));
      } else {
        snapshot.routes_.insert_or_assign(owner, std::move(route));
      }
    }
  }
  return snapshot;
}

const AsPath* RouteSnapshot::RouteOf(Asn asn) const {
  auto it = routes_.find(asn);
  return it == routes_.end() ? nullptr : &it->second;
}

}  // namespace asppi::detect
