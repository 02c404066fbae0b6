#include "nosql/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "nosql/codec.hpp"
#include "nosql/manifest.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace graphulo::nosql {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x47434b32;  // "GCK2"

/// One table's snapshot (catalog + unflushed cells), decoded. Flushed
/// data travels separately as manifest + file artifacts.
struct TableSnapshot {
  std::string name;
  std::vector<std::string> splits;
  std::vector<Cell> cells;  ///< unflushed (memtable + frozen) only
};

/// Decoded main-snapshot payload.
struct CheckpointImage {
  Timestamp clock = 0;
  std::uint64_t covers_seq = 0;
  std::uint64_t epoch = 0;  ///< names the manifest/files artifacts
  std::vector<TableSnapshot> tables;
};

// -- artifact naming --------------------------------------------------------

std::string manifest_path_for(const std::string& path, std::uint64_t epoch) {
  return path + ".manifest-" + std::to_string(epoch);
}

std::string files_dir_for(const std::string& path, std::uint64_t epoch) {
  return path + ".files-" + std::to_string(epoch);
}

std::string rfile_path_in(const std::string& dir, std::uint64_t file_id) {
  return dir + "/f" + std::to_string(file_id) + ".rf";
}

/// True when `name` is `<base><suffix_prefix><digits>`; outputs the
/// parsed digits. Exact-prefix + all-digits, so e.g. a neighboring
/// "<base>.files-3.bak" never matches.
bool parse_epoch_artifact(const std::string& name, const std::string& base,
                          const char* suffix_prefix, std::uint64_t& epoch) {
  const std::string prefix = base + suffix_prefix;
  if (name.size() <= prefix.size() ||
      name.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  const std::string digits = name.substr(prefix.size());
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  epoch = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

/// Picks the epoch for a new checkpoint: at least `covers_seq` (so
/// epochs track WAL progress and are human-correlatable) and strictly
/// above every artifact epoch already on disk — a retried or repeated
/// checkpoint NEVER reuses a directory a previous (possibly still
/// live) checkpoint references.
std::uint64_t next_epoch(const std::string& checkpoint_path,
                         std::uint64_t covers_seq) {
  namespace fs = std::filesystem;
  std::uint64_t epoch = std::max<std::uint64_t>(covers_seq, 1);
  const fs::path p(checkpoint_path);
  fs::path dir = p.parent_path();
  if (dir.empty()) dir = ".";
  const std::string base = p.filename().string();
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return epoch;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    std::uint64_t found = 0;
    if (parse_epoch_artifact(name, base, ".manifest-", found) ||
        parse_epoch_artifact(name, base, ".files-", found)) {
      epoch = std::max(epoch, found + 1);
    }
  }
  return epoch;
}

/// Best-effort removal of every manifest/files artifact whose epoch is
/// not `keep` — run only AFTER the new main snapshot is durably
/// renamed into place, so a crash can never strand the live checkpoint
/// pointing at deleted artifacts.
void remove_stale_epochs(const std::string& checkpoint_path,
                         std::uint64_t keep) {
  namespace fs = std::filesystem;
  const fs::path p(checkpoint_path);
  fs::path dir = p.parent_path();
  if (dir.empty()) dir = ".";
  const std::string base = p.filename().string();
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return;
  std::vector<fs::path> stale;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    std::uint64_t found = 0;
    if ((parse_epoch_artifact(name, base, ".manifest-", found) ||
         parse_epoch_artifact(name, base, ".files-", found)) &&
        found != keep) {
      stale.push_back(entry.path());
    }
  }
  for (const auto& path : stale) {
    std::error_code rm_ec;
    fs::remove_all(path, rm_ec);  // ignore failures: retried next time
  }
}

// -- main snapshot encode/decode --------------------------------------------

std::string encode_checkpoint(Instance& db, std::uint64_t covers_seq,
                              std::uint64_t epoch, CheckpointStats& stats) {
  std::string payload;
  wire::put_i64(payload, db.last_timestamp());
  wire::put_u64(payload, covers_seq);
  wire::put_u64(payload, epoch);
  const auto names = db.table_names();
  wire::put_u64(payload, names.size());
  for (const auto& name : names) {
    wire::put_string(payload, name);
    const auto splits = db.list_splits(name);
    wire::put_u64(payload, splits.size());
    for (const auto& s : splits) wire::put_string(payload, s);
    // Unflushed cells only (all versions + delete markers), in extent
    // order across tablets so restore re-routes them identically.
    // Flushed data rides along as file artifacts, not re-encoded cells.
    std::vector<Cell> cells;
    for (const auto& [tablet, sid] : db.tablets_for_range(name, Range::all())) {
      auto part = tablet->unflushed_cells();
      cells.insert(cells.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }
    wire::put_u64(payload, cells.size());
    for (const auto& c : cells) wire::put_cell(payload, c);
    stats.cells += cells.size();
    ++stats.tables;
  }
  return payload;
}

CheckpointImage decode_checkpoint(wire::Cursor c) {
  CheckpointImage image;
  image.clock = wire::get_i64(c);
  image.covers_seq = wire::get_u64(c);
  image.epoch = wire::get_u64(c);
  const std::uint64_t table_count = wire::get_u64(c);
  for (std::uint64_t t = 0; t < table_count; ++t) {
    TableSnapshot snap;
    snap.name = wire::get_string(c);
    const std::uint64_t split_count = wire::get_u64(c);
    for (std::uint64_t i = 0; i < split_count; ++i) {
      snap.splits.push_back(wire::get_string(c));
    }
    const std::uint64_t cell_count = wire::get_u64(c);
    for (std::uint64_t i = 0; i < cell_count; ++i) {
      snap.cells.push_back(wire::get_cell(c));
    }
    image.tables.push_back(std::move(snap));
  }
  c.expect_end();
  return image;
}

/// Writes the main file, one section framed by kCheckpointMagic. False
/// on I/O failure.
bool write_file(const std::string& path, const std::string& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  wire::write_section(out, kCheckpointMagic, payload);
  out.flush();
  return static_cast<bool>(out);
}

/// Loads and validates a checkpoint main file. False on missing file,
/// bad magic, a length past the end of the file, truncation, CRC
/// mismatch or a malformed payload.
bool load_file(const std::string& path, CheckpointImage& image) {
  std::string bytes;
  if (!wire::read_file(path, bytes)) return false;
  try {
    wire::Cursor file(bytes);
    image = decode_checkpoint(wire::read_section(file, kCheckpointMagic));
    return true;
  } catch (const wire::WireError&) {
    return false;
  }
}

/// Persists every live RFile under `dir` and appends one VersionEdit
/// per non-empty tablet to `manifest`. Throws TransientError on I/O
/// failure (caller retries, rewriting this epoch's artifacts wholesale).
void persist_file_sets(Instance& db, const std::string& dir,
                       ManifestWriter& manifest, CheckpointStats& stats) {
  for (const auto& name : db.table_names()) {
    for (const auto& [tablet, sid] : db.tablets_for_range(name, Range::all())) {
      const auto version = tablet->version();
      VersionEdit edit;
      edit.table = name;
      edit.extent_start = tablet->extent().start_row;
      edit.has_extent_start = !edit.extent_start.empty();
      for (const auto& level : version->levels) {
        for (const FileMeta& meta : level) {
          const std::string fpath = rfile_path_in(dir, meta.file_id);
          if (!meta.file->write_to(fpath)) {
            throw util::TransientError("write_checkpoint: I/O failure on " +
                                       fpath);
          }
          edit.added.push_back(meta);
          stats.cells += meta.cells;
          ++stats.files;
        }
      }
      if (!edit.added.empty()) manifest.append(edit);
    }
  }
  manifest.sync();
}

}  // namespace

CheckpointStats write_checkpoint(Instance& db,
                                 const std::string& checkpoint_path) {
  const auto& wal = db.wal();
  if (!wal) {
    throw std::logic_error("write_checkpoint: instance has no attached WAL");
  }
  CheckpointStats stats;
  // Settle background compactions first so the snapshot captures a
  // stable {memtable, frozen, files} set instead of racing installs
  // mid-encode. (The encode would still be CORRECT mid-race — tablet
  // snapshots are consistent — but quiescing keeps checkpoint sizes
  // deterministic.)
  db.quiesce_compactions();
  const std::uint64_t covers_seq = wal->next_seq();
  // Epoch chosen ONCE, outside the retry scope: every retry rewrites
  // the same fresh epoch's artifacts, never an older epoch a previous
  // checkpoint still references.
  const std::uint64_t epoch = next_epoch(checkpoint_path, covers_seq);
  const std::string dir = files_dir_for(checkpoint_path, epoch);
  const std::string tmp_path = checkpoint_path + ".tmp";
  // All artifact writes live inside the retry scope: persisting RFiles
  // passes their own rfile.write fault site, the manifest writer passes
  // manifest.append, and re-running the whole sequence is idempotent
  // (same epoch, same paths, truncate-on-open).
  util::with_retries("write_checkpoint", db.retry_policy(), [&] {
    util::fault::point(util::fault::sites::kCheckpointWrite);
    CheckpointStats fresh;
    fresh.covers_seq = covers_seq;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw util::TransientError("write_checkpoint: cannot create " + dir);
    }
    ManifestWriter manifest(manifest_path_for(checkpoint_path, epoch));
    persist_file_sets(db, dir, manifest, fresh);
    const std::string payload =
        encode_checkpoint(db, covers_seq, epoch, fresh);
    if (!write_file(tmp_path, payload)) {
      throw util::TransientError("write_checkpoint: I/O failure on " +
                                 tmp_path);
    }
    stats = fresh;
  });
  // The rename is the commit point: before it, recovery still sees the
  // previous checkpoint (whose artifacts are untouched); after it, the
  // new epoch's manifest + files are what the main snapshot names.
  if (std::rename(tmp_path.c_str(), checkpoint_path.c_str()) != 0) {
    throw std::runtime_error("write_checkpoint: rename to " +
                             checkpoint_path + " failed");
  }
  // Only after the checkpoint is durably in place may the log shrink.
  // A crash before this rotate leaves stale records in the WAL, which
  // recovery skips by sequence number.
  wal->rotate();
  remove_stale_epochs(checkpoint_path, epoch);
  GRAPHULO_INFO << "checkpoint: " << stats.tables << " tables, "
                << stats.cells << " cells (" << stats.files
                << " files, epoch " << epoch << "), WAL truncated at seq "
                << stats.covers_seq;
  return stats;
}

RecoveryStats recover_instance(Instance& db,
                               const std::string& checkpoint_path,
                               const std::string& wal_path,
                               const TableConfigProvider& config_for) {
  RecoveryStats stats;
  CheckpointImage image;
  bool loaded = false;
  try {
    util::with_retries("recover_instance: checkpoint load",
                       db.retry_policy(), [&] {
                         util::fault::point(util::fault::sites::kCheckpointLoad);
                         image = CheckpointImage{};
                         loaded = load_file(checkpoint_path, image);
                       });
  } catch (const util::TransientError&) {
    loaded = false;  // exhausted retries: fall back to WAL-only recovery
  }
  std::uint64_t min_seq = 0;
  if (loaded) {
    // Catalog first: tables + splits reproduce the tablet layout, so
    // the manifest's per-tablet edits land on matching extents.
    for (const auto& snap : image.tables) {
      db.create_table(snap.name,
                      config_for ? config_for(snap.name) : TableConfig{});
      if (!snap.splits.empty()) db.add_splits(snap.name, snap.splits);
    }
    // Leveled file sets next (BEFORE unflushed cells: restore_files
    // seeds each tablet's data-seq counter, so post-restore flushes
    // sort newer than every recovered file). The manifest replay is
    // torn-tail tolerant; a missing manifest just means no flushed
    // data was captured.
    const auto replay =
        replay_manifest(manifest_path_for(checkpoint_path, image.epoch));
    const std::string dir = files_dir_for(checkpoint_path, image.epoch);
    for (const auto& edit : replay.edits) {
      if (!db.table_exists(edit.table)) {
        GRAPHULO_WARN << "recover_instance: manifest names unknown table '"
                      << edit.table << "', skipping its files";
        continue;
      }
      std::vector<FileMeta> files;
      for (const FileMeta& record : edit.added) {
        const std::string fpath = rfile_path_in(dir, record.file_id);
        std::shared_ptr<RFile> file;
        try {
          util::with_retries("recover_instance: file load",
                             db.retry_policy(), [&] {
                               file = RFile::read_from(fpath);
                             });
        } catch (const util::TransientError&) {
          file = nullptr;
        }
        if (!file) {
          // Corrupt/missing artifact: recover what we can; the loss is
          // loud, not silent.
          GRAPHULO_ERROR << "recover_instance: cannot load " << fpath
                         << ", dropping " << record.cells << " cells";
          continue;
        }
        FileMeta meta = record;
        meta.file = std::move(file);
        meta.file_id = meta.file->file_id();  // runtime ids differ per process
        stats.cells_restored += meta.cells;
        ++stats.files_restored;
        files.push_back(std::move(meta));
      }
      if (!files.empty()) {
        // Copy per attempt: restore_files consumes its argument and the
        // manifest.install fault site may fire inside.
        util::with_retries("recover_instance: restore files",
                           db.retry_policy(), [&] {
                             db.restore_files(edit.table, edit.extent_start,
                                              files);
                           });
      }
    }
    // Unflushed cells last; their flush (if any) gets a data seq newer
    // than every restored file.
    for (auto& snap : image.tables) {
      stats.cells_restored += snap.cells.size();
      db.restore_cells(snap.name, std::move(snap.cells));
      ++stats.tables_restored;
    }
    db.advance_clock(image.clock);
    min_seq = image.covers_seq;
    stats.checkpoint_loaded = true;
  }
  stats.records_replayed = recover_from_wal(db, wal_path, config_for, min_seq);
  return stats;
}

}  // namespace graphulo::nosql
