#include "common/self_profile.h"

#include <mutex>

namespace caba {
namespace {

struct Table
{
    std::mutex mu;
    std::map<std::string, std::int64_t> ns;
};

Table &
table()
{
    // Leaked: prof's atexit report reads it, and atexit handlers run
    // after statics constructed later than their registration die.
    static Table *t = new Table;
    return *t;
}

} // namespace

void
SelfProfile::add(const char *name, std::int64_t ns)
{
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    t.ns[name] += ns;
}

std::map<std::string, std::int64_t>
SelfProfile::snapshot()
{
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    return t.ns;
}

} // namespace caba
