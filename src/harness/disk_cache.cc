#include "harness/disk_cache.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "base/json.hh"
#include "base/json_value.hh"
#include "obs/prof.hh"
#include "base/logging.hh"
#include "harness/result_json.hh"

namespace fs = std::filesystem;

namespace capcheck::harness
{

namespace
{

/** The hash encoded in an entry file name; nullopt for foreign files. */
std::optional<std::uint64_t>
hashFromName(const std::string &name)
{
    if (name.size() != 16 + 5 || name.substr(16) != ".json")
        return std::nullopt;
    std::uint64_t hash = 0;
    for (unsigned i = 0; i < 16; ++i) {
        const char c = name[i];
        hash <<= 4;
        if (c >= '0' && c <= '9')
            hash |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            hash |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    return hash;
}

} // namespace

DiskResultCache::DiskResultCache(std::string cache_dir,
                                 std::uint64_t max_bytes)
    : dir(std::move(cache_dir)), byteCap(max_bytes)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        warn("disk cache: cannot create '%s': %s", dir.c_str(),
             ec.message().c_str());
    }
    indexExisting();
}

std::string
DiskResultCache::pathFor(std::uint64_t hash) const
{
    return dir + "/" + hashHex(hash) + ".json";
}

void
DiskResultCache::indexExisting()
{
    // Recency order across restarts comes from file mtimes: sort the
    // survivors oldest-first and hand out stamps in that order.
    struct Found
    {
        std::uint64_t hash;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Found> found;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        const auto hash = hashFromName(de.path().filename().string());
        if (!hash)
            continue;
        Found f;
        f.hash = *hash;
        f.bytes = de.file_size(ec);
        f.mtime = de.last_write_time(ec);
        found.push_back(f);
    }
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.hash < b.hash;
              });
    for (const Found &f : found) {
        index[f.hash] = Entry{f.bytes, nextStamp++};
        totalBytes += f.bytes;
    }
}

std::optional<system::RunResult>
DiskResultCache::lookup(std::uint64_t hash)
{
    PROF_SCOPE("harness", "cache.disk.lookup");
    {
        std::scoped_lock lock(mtx);
        ++lookupCount;
        if (index.find(hash) == index.end())
            return std::nullopt;
    }

    const std::string path = pathFor(hash);
    std::string parse_error;
    const auto doc = json::parseJsonFile(path, &parse_error);
    std::optional<system::RunResult> result;
    std::string err;
    if (doc) {
        const json::JsonValue *version = doc->get("version");
        const json::JsonValue *stored = doc->get("hash");
        const json::JsonValue *body = doc->get("result");
        if (version && version->isNumber() &&
            static_cast<unsigned>(version->asNumber()) ==
                formatVersion &&
            stored && stored->isString() &&
            stored->asString() == hashHex(hash) && body) {
            result = resultFromWireJson(*body, &err);
        }
    }

    std::scoped_lock lock(mtx);
    const auto it = index.find(hash);
    if (it == index.end())
        return std::nullopt; // evicted while parsing
    if (!result) {
        // Stale version, foreign document, or torn write from a
        // pre-atomic-rename tool: drop the entry and report a miss so
        // the caller re-simulates and overwrites it.
        totalBytes -= std::min(totalBytes, it->second.bytes);
        index.erase(it);
        std::error_code ec;
        fs::remove(path, ec);
        return std::nullopt;
    }
    ++hitCount;
    it->second.stamp = nextStamp++;
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return result;
}

void
DiskResultCache::store(std::uint64_t hash,
                       const system::RunResult &result)
{
    PROF_SCOPE("harness", "cache.disk.store");
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("version").value(formatVersion);
    w.key("hash").value(hashHex(hash));
    w.key("result");
    writeResultWireJson(w, result);
    w.endObject();
    os << '\n';
    const std::string body = os.str();

    const std::string path = pathFor(hash);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("disk cache: cannot write '%s'", tmp.c_str());
            return;
        }
        out << body;
        if (!out.flush()) {
            warn("disk cache: short write to '%s'", tmp.c_str());
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("disk cache: cannot publish '%s': %s", path.c_str(),
             ec.message().c_str());
        fs::remove(tmp, ec);
        return;
    }

    std::scoped_lock lock(mtx);
    const auto it = index.find(hash);
    if (it != index.end())
        totalBytes -= std::min(totalBytes, it->second.bytes);
    index[hash] = Entry{body.size(), nextStamp++};
    totalBytes += body.size();
    evictLocked();
}

void
DiskResultCache::evictLocked()
{
    while (byteCap > 0 && totalBytes > byteCap && index.size() > 1) {
        auto coldest = index.begin();
        for (auto it = index.begin(); it != index.end(); ++it) {
            if (it->second.stamp < coldest->second.stamp)
                coldest = it;
        }
        std::error_code ec;
        fs::remove(pathFor(coldest->first), ec);
        totalBytes -= std::min(totalBytes, coldest->second.bytes);
        index.erase(coldest);
        ++evictCount;
    }
}

CacheStats
DiskResultCache::stats() const
{
    std::scoped_lock lock(mtx);
    CacheStats s;
    s.entries = index.size();
    s.bytes = totalBytes;
    s.hits = hitCount;
    s.lookups = lookupCount;
    s.evictions = evictCount;
    return s;
}

} // namespace capcheck::harness
