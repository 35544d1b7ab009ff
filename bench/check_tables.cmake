# Accuracy gate for one figure bench: runs BENCH with the google-benchmark
# loops filtered out and compares the lines of its printed tables (every
# line holding a '|') with the committed EXPECTED file.  The tables are
# deterministic, so any difference is a behaviour change: re-record the file
# in the change that moves them and list old -> new in CHANGES.md.
#
#   cmake -DBENCH=<bench binary> -DEXPECTED=<table file> -P check_tables.cmake
execute_process(COMMAND ${BENCH} --benchmark_filter=none
                OUTPUT_VARIABLE output RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}:\n${output}")
endif()
string(REGEX MATCHALL "[^\n]*\\|[^\n]*" lines "${output}")
list(JOIN lines "\n" actual)
file(READ ${EXPECTED} expected)
string(STRIP "${expected}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${EXPECTED} NAME)
  file(WRITE ${name}.actual "${actual}\n")
  message(FATAL_ERROR "tables differ: diff ${EXPECTED} "
                      "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
