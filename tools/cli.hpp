#pragma once
/// \file cli.hpp
/// Library entry point of the mrtpl command-line front end. The binary
/// (mrtpl_cli.cpp) is a thin main() around run(); tests drive the same
/// subcommand paths in-process via this header.

#include <string>
#include <vector>

namespace mrtpl::cli {

/// Execute one CLI invocation. `args` are the argv words *after* the
/// program name, e.g. {"route", "--design", "foo.design"}. Output goes to
/// stdout/stderr exactly as the binary's would. Returns the process exit
/// code: 0 success, 1 flow-level failure (e.g. conflicts remain, DRC
/// violations, runtime error), 2 usage error (unknown subcommand or flag,
/// a valued flag without a value, a bad flag value), 3 malformed input,
/// 4 budget-degraded result.
int run(const std::vector<std::string>& args);

/// argv-style adapter used by main().
int run(int argc, char** argv);

}  // namespace mrtpl::cli
