#include "dfs/hdfs_api.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/require.hpp"

namespace opass::hdfs {

struct FileImpl {
  std::string path;
  bool writable = false;
  dfs::FileId fid = dfs::NameNode::kInvalidFile;  // read handles
  Bytes cursor = 0;
  std::vector<std::uint8_t> pending;  // write handles accumulate here
  bool closed = false;
};

struct FileSystemImpl {
  dfs::NameNode* nn = nullptr;
  dfs::NodeId local_node = dfs::kInvalidNode;
  std::unique_ptr<dfs::PlacementPolicy> placement;
  dfs::ReplicaChoice replica_choice = dfs::ReplicaChoice::kRandom;
  Rng rng{0};
  // Content written through the API, keyed by file id.
  std::unordered_map<dfs::FileId, std::vector<std::uint8_t>> content;
  std::vector<std::unique_ptr<FileImpl>> open_files;
};

namespace {

/// Read `length` bytes of file content at `pos` into `buffer`, from the
/// content store when present, otherwise the synthetic pattern.
void fill_bytes(const FileSystemImpl& fs, const dfs::FileInfo& fi, Bytes pos, Bytes length,
                std::uint8_t* buffer) {
  const auto it = fs.content.find(fi.id);
  if (it != fs.content.end()) {
    OPASS_CHECK(pos + length <= it->second.size(),
                "read past the stored content of '" + fi.name + "'");
    std::memcpy(buffer, it->second.data() + pos, length);
    return;
  }
  const Bytes chunk_size = fs.nn->chunk_size();
  for (Bytes i = 0; i < length; ++i) {
    const Bytes p = pos + i;
    const auto chunk_index = static_cast<std::size_t>(p / chunk_size);
    buffer[i] = synthetic_byte(fi.chunks[chunk_index], p % chunk_size);
  }
}

}  // namespace

std::uint8_t synthetic_byte(dfs::ChunkId chunk, Bytes offset_in_chunk) {
  // Cheap deterministic mix of chunk id and offset.
  std::uint64_t x = (static_cast<std::uint64_t>(chunk) << 32) ^ offset_in_chunk;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::uint8_t>(x);
}

hdfsFS hdfsConnect(dfs::NameNode* nn, dfs::NodeId local_node, dfs::PlacementKind placement,
                   dfs::ReplicaChoice replica_choice, std::uint64_t seed) {
  OPASS_REQUIRE(nn != nullptr, "hdfsConnect needs a NameNode");
  OPASS_REQUIRE(local_node == dfs::kInvalidNode || local_node < nn->node_count(),
                "client node out of range");
  auto* fs = new FileSystemImpl;
  fs->nn = nn;
  fs->local_node = local_node;
  fs->placement = dfs::make_placement(placement);
  fs->replica_choice = replica_choice;
  fs->rng.reseed(seed);
  return fs;
}

void hdfsDisconnect(hdfsFS fs) {
  if (!fs) return;
  for (const auto& f : fs->open_files)
    OPASS_REQUIRE(f->closed, "disconnect with open files");
  delete fs;
}

hdfsFile hdfsOpenFile(hdfsFS fs, const std::string& path, int flags) {
  OPASS_REQUIRE(fs != nullptr, "null file system handle");
  auto file = std::make_unique<FileImpl>();
  file->path = path;
  if (flags == O_RDONLY_) {
    const auto fid = fs->nn->find_file(path);
    if (fid == dfs::NameNode::kInvalidFile) return nullptr;
    file->fid = fid;
  } else if (flags == O_WRONLY_) {
    if (fs->nn->exists(path)) return nullptr;  // no overwrite, like HDFS
    file->writable = true;
  } else {
    return nullptr;  // unsupported mode
  }
  fs->open_files.push_back(std::move(file));
  return fs->open_files.back().get();
}

int hdfsCloseFile(hdfsFS fs, hdfsFile file) {
  if (!fs || !file || file->closed) return -1;
  if (file->writable) {
    if (file->pending.empty()) {
      file->closed = true;
      return -1;  // HDFS cannot commit an empty file in this model
    }
    const auto fid = fs->nn->create_file(file->path, file->pending.size(), *fs->placement,
                                         fs->rng, fs->local_node);
    fs->content.emplace(fid, std::move(file->pending));
  }
  file->closed = true;
  return 0;
}

tSize hdfsRead(hdfsFS fs, hdfsFile file, void* buffer, tSize length) {
  const tSize n = hdfsPread(fs, file, static_cast<tOffset>(file ? file->cursor : 0), buffer,
                            length);
  if (n > 0) file->cursor += static_cast<Bytes>(n);
  return n;
}

tSize hdfsPread(hdfsFS fs, hdfsFile file, tOffset position, void* buffer, tSize length) {
  if (!fs || !file || file->closed || file->writable || length < 0 || position < 0)
    return -1;
  const auto& fi = fs->nn->file(file->fid);
  if (fs->nn->is_deleted(file->fid)) return -1;
  const auto pos = static_cast<Bytes>(position);
  if (pos >= fi.size) return 0;  // EOF
  const Bytes n = std::min<Bytes>(static_cast<Bytes>(length), fi.size - pos);
  fill_bytes(*fs, fi, pos, n, static_cast<std::uint8_t*>(buffer));
  return static_cast<tSize>(n);
}

tSize hdfsWrite(hdfsFS fs, hdfsFile file, const void* buffer, tSize length) {
  if (!fs || !file || file->closed || !file->writable || length < 0) return -1;
  const auto* bytes = static_cast<const std::uint8_t*>(buffer);
  file->pending.insert(file->pending.end(), bytes, bytes + length);
  return length;
}

int hdfsSeek(hdfsFS fs, hdfsFile file, tOffset pos) {
  if (!fs || !file || file->closed || file->writable || pos < 0) return -1;
  if (static_cast<Bytes>(pos) > fs->nn->file(file->fid).size) return -1;
  file->cursor = static_cast<Bytes>(pos);
  return 0;
}

tOffset hdfsTell(hdfsFS /*fs*/, hdfsFile file) {
  if (!file || file->closed) return -1;
  return static_cast<tOffset>(file->cursor);
}

tOffset hdfsAvailable(hdfsFS fs, hdfsFile file) {
  if (!fs || !file || file->closed || file->writable) return -1;
  const auto& fi = fs->nn->file(file->fid);
  return static_cast<tOffset>(fi.size - std::min(file->cursor, fi.size));
}

int hdfsExists(hdfsFS fs, const std::string& path) {
  return fs && fs->nn->exists(path) ? 0 : -1;
}

int hdfsDelete(hdfsFS fs, const std::string& path) {
  if (!fs) return -1;
  const auto fid = fs->nn->find_file(path);
  if (fid == dfs::NameNode::kInvalidFile) return -1;
  fs->nn->delete_file(fid);
  fs->content.erase(fid);
  return 0;
}

int hdfsRename(hdfsFS fs, const std::string& old_path, const std::string& new_path) {
  if (!fs) return -1;
  const auto fid = fs->nn->find_file(old_path);
  if (fid == dfs::NameNode::kInvalidFile || fs->nn->exists(new_path)) return -1;
  fs->nn->rename_file(fid, new_path);
  return 0;
}

std::optional<hdfsFileInfo> hdfsGetPathInfo(hdfsFS fs, const std::string& path) {
  if (!fs) return std::nullopt;
  const auto fid = fs->nn->find_file(path);
  if (fid == dfs::NameNode::kInvalidFile) return std::nullopt;
  const auto& fi = fs->nn->file(fid);
  return hdfsFileInfo{fi.name, fi.size, fs->nn->chunk_size(), fs->nn->replication()};
}

std::vector<hdfsFileInfo> hdfsListDirectory(hdfsFS fs, const std::string& prefix) {
  std::vector<hdfsFileInfo> out;
  if (!fs) return out;
  for (const auto fid : fs->nn->list_prefix(prefix)) {
    const auto& fi = fs->nn->file(fid);
    out.push_back({fi.name, fi.size, fs->nn->chunk_size(), fs->nn->replication()});
  }
  return out;
}

std::vector<std::vector<dfs::NodeId>> hdfsGetHosts(hdfsFS fs, const std::string& path,
                                                   tOffset start, tOffset length) {
  std::vector<std::vector<dfs::NodeId>> out;
  if (!fs || start < 0 || length < 0) return out;
  const auto fid = fs->nn->find_file(path);
  if (fid == dfs::NameNode::kInvalidFile) return out;
  const auto& fi = fs->nn->file(fid);
  const Bytes chunk_size = fs->nn->chunk_size();
  const auto begin = static_cast<Bytes>(start);
  const Bytes end = std::min(fi.size, begin + static_cast<Bytes>(length));
  for (std::size_t ci = 0; ci < fi.chunks.size(); ++ci) {
    const Bytes c_begin = static_cast<Bytes>(ci) * chunk_size;
    const Bytes c_end = c_begin + fs->nn->chunk(fi.chunks[ci]).size;
    if (c_end <= begin || c_begin >= end) continue;
    const dfs::ReplicaSet& hosts = fs->nn->locations(fi.chunks[ci]);
    out.emplace_back(hosts.begin(), hosts.end());
  }
  return out;
}

Bytes hdfsGetDefaultBlockSize(hdfsFS fs) { return fs ? fs->nn->chunk_size() : 0; }

Bytes hdfsGetUsed(hdfsFS fs) {
  if (!fs) return 0;
  Bytes used = 0;
  for (Bytes b : fs->nn->node_bytes()) used += b;
  return used;
}

dfs::NodeId hdfsPickServer(hdfsFS fs, dfs::ChunkId chunk) {
  OPASS_REQUIRE(fs != nullptr, "null file system handle");
  return dfs::choose_serving_node(fs->nn->chunk(chunk), fs->local_node, {},
                                  fs->replica_choice, fs->rng);
}

}  // namespace opass::hdfs
