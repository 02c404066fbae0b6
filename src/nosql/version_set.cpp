#include "nosql/version_set.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fault.hpp"

namespace graphulo::nosql {

int compare_columns(const Key& a, const Key& b) noexcept {
  if (int c = a.row.compare(b.row)) return c;
  if (int c = a.family.compare(b.family)) return c;
  if (int c = a.qualifier.compare(b.qualifier)) return c;
  return a.visibility.compare(b.visibility);
}

FileMeta FileMeta::describe(std::shared_ptr<RFile> rf, int level,
                            std::uint64_t seq) {
  FileMeta m;
  m.file_id = rf->file_id();
  m.level = level;
  m.seq = seq;
  m.cells = rf->entry_count();
  m.bytes = rf->approximate_bytes();
  m.first_key = rf->first_key();
  m.last_key = rf->last_key();
  m.file = std::move(rf);
  return m;
}

std::size_t Version::file_count() const {
  std::size_t n = 0;
  for (const auto& level : levels) n += level.size();
  return n;
}

std::uint64_t Version::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& level : levels)
    for (const FileMeta& m : level) n += m.bytes;
  return n;
}

std::uint64_t Version::total_cells() const {
  std::uint64_t n = 0;
  for (const auto& level : levels)
    for (const FileMeta& m : level) n += m.cells;
  return n;
}

std::uint64_t Version::level_bytes(std::size_t level) const {
  if (level >= levels.size()) return 0;
  std::uint64_t n = 0;
  for (const FileMeta& m : levels[level]) n += m.bytes;
  return n;
}

std::vector<FileMeta> Version::overlapping(std::size_t level, const Key& lo,
                                           const Key& hi) const {
  std::vector<FileMeta> out;
  if (level >= levels.size()) return out;
  for (const FileMeta& m : levels[level]) {
    if (m.overlaps(lo, hi)) out.push_back(m);
  }
  return out;
}

bool Version::any_overlap_below(std::size_t level, const Key& lo,
                                const Key& hi) const {
  for (std::size_t l = level + 1; l < levels.size(); ++l) {
    for (const FileMeta& m : levels[l]) {
      if (m.overlaps(lo, hi)) return true;
    }
  }
  return false;
}

std::vector<FileMeta> Version::all_files() const {
  std::vector<FileMeta> out;
  out.reserve(file_count());
  for (const auto& level : levels) {
    out.insert(out.end(), level.begin(), level.end());
  }
  return out;
}

bool VersionSet::apply(const VersionEdit& edit) {
  // Fires before any state changes: a fired fault leaves the previous
  // version installed and the caller's output files unreferenced.
  util::fault::point(util::fault::sites::kManifestInstall);
  auto next = std::make_shared<Version>(*current_);
  for (const std::uint64_t id : edit.removed) {
    bool found = false;
    for (auto& level : next->levels) {
      const auto it = std::find_if(
          level.begin(), level.end(),
          [&](const FileMeta& m) { return m.file_id == id; });
      if (it != level.end()) {
        level.erase(it);
        found = true;
        break;
      }
    }
    // A removed input vanished: this edit raced another rewrite of the
    // same files. Reject wholesale; the caller discards its output.
    if (!found) return false;
  }
  for (const FileMeta& m : edit.added) {
    const auto lvl = static_cast<std::size_t>(m.level);
    if (next->levels.size() <= lvl) next->levels.resize(lvl + 1);
    auto& level = next->levels[lvl];
    if (lvl == 0) {
      // L0 stays newest-first by data seq.
      const auto pos = std::find_if(
          level.begin(), level.end(),
          [&](const FileMeta& f) { return f.seq < m.seq; });
      level.insert(pos, m);
    } else {
      const auto pos = std::lower_bound(
          level.begin(), level.end(), m,
          [](const FileMeta& a, const FileMeta& b) {
            return a.first_key < b.first_key;
          });
      const auto at = level.insert(pos, m);
      const auto idx = static_cast<std::size_t>(at - level.begin());
      // Disjointness is COLUMN-level (see compare_columns): two files
      // holding different versions of one column overlap even though
      // their full-key ranges would not.
      if ((idx > 0 && compare_columns(level[idx - 1].last_key,
                                      level[idx].first_key) >= 0) ||
          (idx + 1 < level.size() &&
           compare_columns(level[idx].last_key,
                           level[idx + 1].first_key) >= 0)) {
        throw std::logic_error(
            "VersionSet: overlapping key ranges inside sorted level " +
            std::to_string(lvl));
      }
    }
  }
  while (!next->levels.empty() && next->levels.back().empty()) {
    next->levels.pop_back();
  }
  current_ = std::move(next);
  return true;
}

namespace {

/// Key span [lo, hi] covered by `files` (files must be non-empty).
void span_of(const std::vector<FileMeta>& files, Key& lo, Key& hi) {
  lo = files.front().first_key;
  hi = files.front().last_key;
  for (const FileMeta& m : files) {
    if (m.first_key < lo) lo = m.first_key;
    if (hi < m.last_key) hi = m.last_key;
  }
}

/// All of L0 plus its overlap in the next sorted level.
CompactionPick pick_l0(const Version& v, const CompactionConfig& cfg) {
  CompactionPick p;
  p.input_level = 0;
  p.output_level = cfg.max_levels > 1 ? 1 : 0;
  p.inputs = v.levels[0];  // newest-first already
  Key lo, hi;
  span_of(p.inputs, lo, hi);
  if (p.output_level > 0) {
    const auto overlap = v.overlapping(p.output_level, lo, hi);
    p.inputs.insert(p.inputs.end(), overlap.begin(), overlap.end());
    span_of(p.inputs, lo, hi);
  }
  p.bottommost = !v.any_overlap_below(p.output_level, lo, hi);
  return p;
}

/// The largest file of `level` plus its overlap one level down.
CompactionPick pick_push_down(const Version& v, std::size_t level) {
  const auto& files = v.levels[level];
  std::size_t victim = 0;
  for (std::size_t i = 1; i < files.size(); ++i) {
    if (files[i].bytes > files[victim].bytes) victim = i;
  }
  CompactionPick p;
  p.input_level = level;
  p.output_level = level + 1;
  p.inputs.push_back(files[victim]);
  const auto overlap = v.overlapping(level + 1, files[victim].first_key,
                                     files[victim].last_key);
  p.inputs.insert(p.inputs.end(), overlap.begin(), overlap.end());
  Key lo, hi;
  span_of(p.inputs, lo, hi);
  p.bottommost = !v.any_overlap_below(p.output_level, lo, hi);
  return p;
}

}  // namespace

std::optional<CompactionPick> pick_compaction(const Version& v,
                                              const CompactionConfig& cfg,
                                              bool pressure) {
  const std::size_t l0 = v.levels.empty() ? 0 : v.levels[0].size();
  if (l0 >= cfg.level0_trigger && l0 >= 1) return pick_l0(v, cfg);
  for (std::size_t l = 1; l < v.levels.size(); ++l) {
    if (l + 1 >= cfg.max_levels) break;  // bottom level: nowhere to push
    if (v.levels[l].empty()) continue;
    if (v.level_bytes(l) <= cfg.budget_for(l)) continue;
    return pick_push_down(v, l);
  }
  if (pressure) {
    // Progress guarantee for back-pressured writers: shrink the file
    // count even when no size trigger is due.
    if (l0 >= 2) return pick_l0(v, cfg);
    std::size_t fullest = 0, most = 0;
    for (std::size_t l = 1; l < v.levels.size(); ++l) {
      if (v.levels[l].size() > most) {
        most = v.levels[l].size();
        fullest = l;
      }
    }
    if (most >= 2) {
      if (fullest + 1 < cfg.max_levels) return pick_push_down(v, fullest);
      // Bottom level: merge it into one file in place.
      CompactionPick p;
      p.input_level = fullest;
      p.output_level = fullest;
      p.inputs = v.levels[fullest];
      p.bottommost = fullest + 1 >= v.levels.size();
      return p;
    }
  }
  return std::nullopt;
}

}  // namespace graphulo::nosql
