# Writes the benches' provenance header: GKX_GIT_REV is HEAD's short hash,
# "<rev>-dirty" when a tracked file other than BENCH_*.json differs from
# HEAD (the BENCH files are what a run writes), and "unknown" outside a git
# checkout. The header is rewritten only when the stamp changes, so a build
# of an unchanged tree recompiles nothing.
#
#   cmake -DSOURCE_DIR=<checkout> -DOUTPUT=<header> -P cmake/git_rev.cmake

execute_process(COMMAND git rev-parse --short=12 HEAD
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE rev
                OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE rev_failed
                ERROR_QUIET)
if(rev_failed OR NOT rev)
  set(rev "unknown")
else()
  execute_process(COMMAND git diff --quiet HEAD -- . ":(exclude)BENCH_*.json"
                  WORKING_DIRECTORY ${SOURCE_DIR}
                  RESULT_VARIABLE dirty
                  ERROR_QUIET)
  if(NOT dirty EQUAL 0)
    string(APPEND rev "-dirty")
  endif()
endif()

set(content "// Generated by cmake/git_rev.cmake; do not edit.\n#define GKX_GIT_REV \"${rev}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUTPUT} "${content}")
endif()
