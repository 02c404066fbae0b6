#include "nosql/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "nosql/codec.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace graphulo::nosql {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x47434b33;  // "GCK3"

/// One tablet's file set as the section records it: the tablet's
/// extent start and, per live file, its id (also its artifact name),
/// level and data seq. Everything else a FileMeta holds is rebuilt
/// from the reloaded RFile.
struct TabletFiles {
  struct File {
    std::uint64_t id = 0;
    int level = 0;
    std::uint64_t seq = 0;
  };
  std::string extent_start;
  std::vector<File> files;
};

/// One table's snapshot (catalog, file sets, unflushed cells), decoded.
struct TableSnapshot {
  std::string name;
  std::vector<std::string> splits;
  std::vector<TabletFiles> tablets;  ///< in extent order
  std::vector<Cell> cells;           ///< unflushed (memtable + frozen) only
};

/// Decoded main-section payload.
struct CheckpointImage {
  Timestamp clock = 0;
  std::uint64_t covers_seq = 0;
  std::uint64_t epoch = 0;  ///< names the files directory
  std::vector<TableSnapshot> tables;
};

// -- artifact naming --------------------------------------------------------

std::string files_dir_for(const std::string& path, std::uint64_t epoch) {
  return path + ".files-" + std::to_string(epoch);
}

std::string rfile_path_in(const std::string& dir, std::uint64_t file_id) {
  return dir + "/f" + std::to_string(file_id) + ".rf";
}

/// Every `<base>.files-<digits>` directory beside `checkpoint_path`,
/// with its epoch. Exact prefix + all digits, so e.g. a neighboring
/// "<base>.files-3.bak" never matches.
std::vector<std::pair<std::filesystem::path, std::uint64_t>> files_dirs(
    const std::string& checkpoint_path) {
  namespace fs = std::filesystem;
  const fs::path p(checkpoint_path);
  fs::path dir = p.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = p.filename().string() + ".files-";
  std::vector<std::pair<fs::path, std::uint64_t>> found;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return found;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    found.emplace_back(entry.path(),
                       std::strtoull(digits.c_str(), nullptr, 10));
  }
  return found;
}

/// Picks the epoch for a new checkpoint: at least `covers_seq` (so
/// epochs track WAL progress and are human-correlatable) and strictly
/// above every files directory already on disk — a retried or repeated
/// checkpoint NEVER reuses a directory a previous (possibly still
/// live) checkpoint references.
std::uint64_t next_epoch(const std::string& checkpoint_path,
                         std::uint64_t covers_seq) {
  std::uint64_t epoch = std::max<std::uint64_t>(covers_seq, 1);
  for (const auto& [dir, found] : files_dirs(checkpoint_path)) {
    epoch = std::max(epoch, found + 1);
  }
  return epoch;
}

/// Best-effort removal of every files directory whose epoch is not
/// `keep` — run only AFTER the new main section is renamed into place,
/// so a crash can never strand the live checkpoint pointing at deleted
/// artifacts.
void remove_stale_epochs(const std::string& checkpoint_path,
                         std::uint64_t keep) {
  for (const auto& [dir, found] : files_dirs(checkpoint_path)) {
    if (found == keep) continue;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);  // ignore failures: retried next time
  }
}

// -- main section encode/decode ---------------------------------------------

/// Encodes the main section and writes every live RFile it names under
/// `dir`. Throws TransientError on I/O failure (the caller retries,
/// rewriting this epoch's artifacts wholesale).
std::string encode_checkpoint(Instance& db, std::uint64_t covers_seq,
                              std::uint64_t epoch, const std::string& dir,
                              CheckpointStats& stats) {
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
    // Each tablet's file set, in extent order, then the table's
    // unflushed cells (all versions + delete markers) in the same
    // order, so restore re-routes them identically. Flushed data is
    // the files themselves, never re-encoded as cells.
    const auto tablets = db.tablets_for_range(name, Range::all());
    wire::put_u64(payload, tablets.size());
    std::vector<Cell> cells;
    for (const auto& [tablet, sid] : tablets) {
      wire::put_string(payload, tablet->extent().start_row);
      const auto files = tablet->version()->all_files();
      wire::put_u64(payload, files.size());
      for (const FileMeta& meta : files) {
        const std::string fpath = rfile_path_in(dir, meta.file_id);
        if (!meta.file->write_to(fpath)) {
          throw util::TransientError("write_checkpoint: I/O failure on " +
                                     fpath);
        }
        wire::put_u64(payload, meta.file_id);
        wire::put_u64(payload, static_cast<std::uint64_t>(meta.level));
        wire::put_u64(payload, meta.seq);
        stats.cells += meta.cells;
        ++stats.files;
      }
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
    const std::uint64_t tablet_count = wire::get_u64(c);
    for (std::uint64_t i = 0; i < tablet_count; ++i) {
      TabletFiles tablet;
      tablet.extent_start = wire::get_string(c);
      const std::uint64_t file_count = wire::get_u64(c);
      for (std::uint64_t f = 0; f < file_count; ++f) {
        TabletFiles::File file;
        file.id = wire::get_u64(c);
        file.level = static_cast<int>(wire::get_u64(c));
        file.seq = wire::get_u64(c);
        tablet.files.push_back(file);
      }
      snap.tablets.push_back(std::move(tablet));
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

/// Reloads one tablet's files from `dir`. A file that is missing,
/// damaged or empty is dropped, loudly; the rest are kept.
std::vector<FileMeta> load_files(Instance& db, const std::string& dir,
                                 const TabletFiles& tablet) {
  std::vector<FileMeta> files;
  for (const TabletFiles::File& ref : tablet.files) {
    const std::string fpath = rfile_path_in(dir, ref.id);
    std::shared_ptr<RFile> file;
    try {
      util::with_retries("recover_instance: file load", db.retry_policy(),
                         [&] { file = RFile::read_from(fpath); });
    } catch (const util::TransientError&) {
      file = nullptr;
    }
    if (!file || file->empty()) {
      GRAPHULO_ERROR << "recover_instance: cannot load " << fpath
                     << ", dropping its cells";
      continue;
    }
    // The reloaded file takes a runtime id of its own: ids differ per
    // process.
    files.push_back(FileMeta::describe(std::move(file), ref.level, ref.seq));
  }
  return files;
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
  // passes their own rfile.write fault site, and re-running the whole
  // sequence is idempotent (same epoch, same paths, truncate-on-open).
  util::with_retries("write_checkpoint", db.retry_policy(), [&] {
    util::fault::point(util::fault::sites::kCheckpointWrite);
    CheckpointStats fresh;
    fresh.covers_seq = covers_seq;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw util::TransientError("write_checkpoint: cannot create " + dir);
    }
    const std::string payload =
        encode_checkpoint(db, covers_seq, epoch, dir, fresh);
    if (!write_file(tmp_path, payload)) {
      throw util::TransientError("write_checkpoint: I/O failure on " +
                                 tmp_path);
    }
    stats = fresh;
  });
  // The rename is the commit point: before it, recovery still sees the
  // previous checkpoint (whose artifacts are untouched); after it, the
  // new epoch's files are what the main section names.
  if (std::rename(tmp_path.c_str(), checkpoint_path.c_str()) != 0) {
    throw std::runtime_error("write_checkpoint: rename to " +
                             checkpoint_path + " failed");
  }
  // Only after the checkpoint is renamed into place may the log shrink.
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
    // Per table: the catalog (table + splits) reproduces the tablet
    // layout, so each file set lands on the extent it was written
    // from; the file sets come BEFORE the unflushed cells, because
    // restore_files seeds each tablet's data-seq counter and a flush
    // of the cells must sort newer than every recovered file.
    const std::string dir = files_dir_for(checkpoint_path, image.epoch);
    for (auto& snap : image.tables) {
      db.create_table(snap.name,
                      config_for ? config_for(snap.name) : TableConfig{});
      if (!snap.splits.empty()) db.add_splits(snap.name, snap.splits);
      for (const TabletFiles& tablet : snap.tablets) {
        const std::vector<FileMeta> files = load_files(db, dir, tablet);
        if (files.empty()) continue;
        for (const FileMeta& meta : files) stats.cells_restored += meta.cells;
        stats.files_restored += files.size();
        // Copy per attempt: restore_files consumes its argument and the
        // manifest.install fault site may fire inside.
        util::with_retries("recover_instance: restore files",
                           db.retry_policy(), [&] {
                             db.restore_files(snap.name, tablet.extent_start,
                                              files);
                           });
      }
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
