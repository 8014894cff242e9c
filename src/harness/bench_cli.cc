#include "harness/bench_cli.h"

#include <algorithm>
#include <set>

#include "common/parse.h"

namespace caba {

bool
globMatch(const char *pat, const char *s)
{
    const char *star = nullptr;
    const char *star_s = nullptr;
    while (*s != '\0') {
        if (*pat == '?' || *pat == *s) {
            ++pat;
            ++s;
        } else if (*pat == '*') {
            star = pat++;
            star_s = s;
        } else if (star != nullptr) {
            pat = star + 1;
            s = ++star_s;
        } else {
            return false;
        }
    }
    while (*pat == '*')
        ++pat;
    return *pat == '\0';
}

bool
parseBenchCli(const std::vector<std::string> &args, BenchCli *cli,
              std::string *error)
{
    BenchCli out;
    const auto failed = [&](const std::string &msg) {
        *error = msg;
        return false;
    };

    // Flags with a value accept both "--flag value" and "--flag=value";
    // --json is the exception (value only via '=', see the header).
    std::size_t i = 0;
    const auto valueOf = [&](const char *inline_val, std::string *v) {
        if (inline_val != nullptr) {
            *v = inline_val;
            return true;
        }
        if (i + 1 >= args.size())
            return false;
        *v = args[++i];
        return true;
    };

    for (i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "-h" || arg == "--help") {
            out.action = BenchCli::Action::Help;
            *cli = out;
            return true;
        }
        if (arg == "--help-env") {
            out.action = BenchCli::Action::HelpEnv;
            *cli = out;
            return true;
        }
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            const std::string flag = arg.substr(0, eq);
            const char *inline_val =
                eq == std::string::npos ? nullptr : arg.c_str() + eq + 1;
            std::string v;
            if (flag == "--list" || flag == "--all") {
                if (inline_val != nullptr)
                    return failed("flag " + flag + " takes no value");
                (flag == "--list" ? out.list : out.run_all) = true;
            } else if (flag == "--filter") {
                if (!valueOf(inline_val, &v))
                    return failed("flag --filter needs a value");
                out.filters.push_back(v);
            } else if (flag == "--json") {
                // Bare --json keeps per-experiment default paths and
                // must not consume the next token (it used to eat the
                // experiment name); an explicit path is --json=PATH.
                out.json_enabled = true;
                if (inline_val != nullptr) {
                    if (*inline_val == '\0')
                        return failed("--json= needs a non-empty path");
                    out.json_path = inline_val;
                }
            } else if (flag == "--scale") {
                if (!valueOf(inline_val, &v))
                    return failed("flag --scale needs a value");
                if (!parse::finitePositiveReal(v, &out.opts.scale))
                    return failed("--scale needs a finite positive "
                                  "number, got '" + v + "'");
            } else if (flag == "--jobs" || flag == "--warps") {
                if (!valueOf(inline_val, &v))
                    return failed("flag " + flag + " needs a value");
                int n = 0;
                if (!parse::intInRange(v, 0, &n))
                    return failed(flag + " needs a non-negative integer "
                                  "in int range, got '" + v + "'");
                (flag == "--jobs" ? out.opts.jobs : out.opts.max_warps) = n;
            } else {
                return failed("unknown flag '" + arg + "'");
            }
        } else if (!arg.empty() && arg[0] == '-' && arg.size() > 1) {
            return failed("unknown flag '" + arg + "'");
        } else {
            out.names.push_back(arg);
        }
    }
    *cli = out;
    return true;
}

bool
resolveSelection(const BenchCli &cli,
                 const std::vector<std::string> &available,
                 std::vector<std::string> *selected, std::string *error)
{
    std::set<std::string> picked;
    for (const std::string &name : cli.names) {
        if (std::find(available.begin(), available.end(), name) ==
            available.end()) {
            *error = "unknown experiment '" + name + "' (see --list)";
            return false;
        }
        picked.insert(name);
    }
    for (const std::string &glob : cli.filters) {
        bool any = false;
        for (const std::string &name : available) {
            if (globMatch(glob.c_str(), name.c_str())) {
                picked.insert(name);
                any = true;
            }
        }
        if (!any) {
            *error = "--filter '" + glob +
                     "' matches no experiment (see --list)";
            return false;
        }
    }
    if (cli.run_all)
        picked.insert(available.begin(), available.end());
    if (picked.empty()) {
        *error = "no experiments selected (name one, or use --all, "
                 "--filter, --list)";
        return false;
    }
    if (!cli.json_path.empty() && picked.size() > 1) {
        *error = "an explicit --json path needs exactly one selected "
                 "experiment (" + std::to_string(picked.size()) +
                 " selected)";
        return false;
    }
    selected->assign(picked.begin(), picked.end());
    return true;
}

} // namespace caba
