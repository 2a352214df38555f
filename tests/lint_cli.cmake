# Golden run of the lint CLI: every command below must print the same
# diagnostics, tally, JSON and exit code it printed when the digests
# were recorded. Run as a ctest (see CMakeLists.txt) or by hand:
#
#   cmake -DLINT=build/haac_lint -DDBG=build/haac_dbg \
#         -DSERVER=build/haac_server \
#         -DSRC=. -DOUT=build/lint_cli -P tests/lint_cli.cmake
#
# Commands run from SRC with relative paths, so the output does not
# depend on where the tree is checked out. Per case the script checks
# the exit code, the SHA-256 of stdout without its last line, that last
# line (the tally) verbatim, and the SHA-256 of the --json file, if any.

file(MAKE_DIRECTORY "${OUT}")

# lint_case(NAME EXIT BODY_SHA TALLY JSON_SHA COMMAND...)
# BODY_SHA/TALLY/JSON_SHA of "-" skip that check; "@JSON@" in the
# command becomes the case's JSON path.
function(lint_case name rc body_sha tally json_sha)
  set(json "${OUT}/${name}.json")
  set(out "${OUT}/${name}.out")
  string(REPLACE "@JSON@" "${json}" cmd "${ARGN}")
  file(REMOVE "${json}")
  execute_process(COMMAND ${cmd}
    WORKING_DIRECTORY "${SRC}"
    OUTPUT_FILE "${out}"
    ERROR_VARIABLE err
    RESULT_VARIABLE got_rc)
  set(bad "")
  if(NOT got_rc STREQUAL rc)
    string(APPEND bad "  exit ${got_rc}, want ${rc}\n  stderr: ${err}\n")
  endif()
  file(READ "${out}" text)
  string(REGEX REPLACE "\n$" "" text "${text}")
  string(FIND "${text}" "\n" cut REVERSE)
  math(EXPR start "${cut} + 1")
  string(SUBSTRING "${text}" 0 ${start} body)
  string(SUBSTRING "${text}" ${start} -1 last)
  string(SHA256 got_body "${body}")
  if(NOT body_sha STREQUAL "-" AND NOT got_body STREQUAL body_sha)
    string(APPEND bad "  stdout body sha256 ${got_body}, want ${body_sha}\n")
  endif()
  if(NOT tally STREQUAL "-" AND NOT last STREQUAL tally)
    string(APPEND bad "  tally '${last}', want '${tally}'\n")
  endif()
  if(NOT json_sha STREQUAL "-")
    if(EXISTS "${json}")
      file(SHA256 "${json}" got_json)
    else()
      set(got_json "(no file)")
    endif()
    if(NOT got_json STREQUAL json_sha)
      string(APPEND bad "  json sha256 ${got_json}, want ${json_sha}\n")
    endif()
  endif()
  if(bad)
    set_property(GLOBAL APPEND_STRING PROPERTY lint_cli_failures
      "${name}: ${cmd}\n${bad}")
  else()
    message(STATUS "${name}: ok")
  endif()
endfunction()

file(GLOB corpus RELATIVE "${SRC}" "${SRC}/tests/asm/*.haac")
list(SORT corpus)

# The CI haac_lint step, verbatim.
lint_case(isa_corpus 0
  9a97f9d9e452032aa92431c4375d547dd9b1e03f39d5f6a4b34bbeb8d972d81f
  "haac_lint: 5 targets, 0 errors, 0 warnings — ok" -
  "${LINT}" --Werror ${corpus})
lint_case(isa_workloads 0
  442e7bcceb9a0b6b873afb59354204dcb35f36ba387e6b74ca881e45474eb268
  "haac_lint: 8 targets, 0 errors, 0 warnings — ok" -
  "${LINT}" --Werror --all-workloads)
lint_case(isa_streams 0
  b85be0621522f1e72b37e3264d745cb33ae1ee31592791fbcf23337461daedfb
  "haac_lint: 1 target, 0 errors, 0 warnings — ok" -
  "${LINT}" --streams tests/asm/oorw_pressure.haac)
# 65,451 liveness-waste warnings with the "(instruction #k)" suffix.
lint_case(isa_no_esw 0
  68f4150618438b075088aacfab4773d051b935de279ecb56de814e8eaa185023
  "haac_lint: 1 target, 0 errors, 65451 warnings — ok" -
  "${LINT}" --no-esw --workload Hamm)

# The CI circuit-analyzer step, and the pre-optimizer netlists, which
# carry dead-gate and duplicate-gate findings. These goldens were
# recorded with the standalone haac_netlint tool; only the tally's
# program name changed when it became haac_lint's netlist mode.
lint_case(netlist_gate 0
  5230a4cf684e040cb5816d1c4ef1a5dec4f6e2158a0fd24a735501d9e5a972ce
  "haac_lint: 16 targets, 0 errors, 0 warnings — ok"
  cac4119c4d8c2922ce43bcc52a6e10b567eac2d06bc19687bbf08f9ed22c9afa
  "${LINT}" netlist --all-workloads --chains --Werror --json @JSON@)
lint_case(netlist_raw 0
  ee52115b94fcfaf5b9fcd11d83e6b55557b6185acc00e29490b179791849515e
  "haac_lint: 8 targets, 0 errors, 27818 warnings — ok"
  3a6b49095b9aadd3156344ced69e8af15b3731a3065935e4485e66147bb34508
  "${LINT}" netlist --raw --all-workloads --json @JSON@)

# Usage errors exit 2 with a message: bad numbers, machine configs the
# simulator cannot run, and a flag from the other mode.
lint_case(bad_number 2 - - - "${LINT}" --sww-wires abc x.haac)
lint_case(zero_ges 2 - - -
  "${LINT}" --streams --ges 0 tests/asm/adder4.haac)
lint_case(one_wire_sww 2 - - - "${LINT}" --sww-wires 1 tests/asm/adder4.haac)
lint_case(isa_flag_in_netlist 2 - - - "${LINT}" netlist --streams --chains)
lint_case(netlist_flag_in_isa 2 - - - "${LINT}" --raw --all-workloads)
lint_case(dbg_zero_ges 2 - - - "${DBG}" --workload Hamm --ges 0 --batch)
lint_case(dbg_bad_number 2 - - - "${DBG}" --workload Hamm --banks x --batch)

# haac_server reads each numeric flag as one whole decimal token: a bad
# value exits 2 naming the flag, before the server binds a port. A
# server that took the value and went on to listen is stopped by the
# timeout and fails the case.
function(server_usage_case name flag)
  execute_process(COMMAND "${SERVER}" ${ARGN}
    WORKING_DIRECTORY "${SRC}"
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE got_rc
    TIMEOUT 10)
  set(bad "")
  if(NOT got_rc STREQUAL "2")
    string(APPEND bad "  exit ${got_rc}, want 2\n")
  endif()
  string(FIND "${err}" "${flag}" named)
  if(named EQUAL -1)
    string(APPEND bad "  stderr does not name ${flag}: ${err}\n")
  endif()
  string(FIND "${err}" "listening" bound)
  if(NOT bound EQUAL -1)
    string(APPEND bad "  bound a port before refusing: ${err}\n")
  endif()
  if(bad)
    set_property(GLOBAL APPEND_STRING PROPERTY lint_cli_failures
      "${name}: ${SERVER} ${ARGN}\n${bad}")
  else()
    message(STATUS "${name}: ok")
  endif()
endfunction()

server_usage_case(server_bad_port --port --bind 127.0.0.1 --port abc)
server_usage_case(server_port_range --port --bind 127.0.0.1 --port 65536)
server_usage_case(server_bad_segment --segment
  --bind 127.0.0.1 --port 0 --segment abc)
server_usage_case(server_bad_max_gates --max-gates
  --bind 127.0.0.1 --port 0 --max-gates abc)
server_usage_case(server_trailing_junk --sessions
  --bind 127.0.0.1 --port 0 --sessions 3x)
server_usage_case(server_bad_threads --threads
  --bind 127.0.0.1 --port 0 --threads abc)
server_usage_case(server_zero_threads --threads
  --bind 127.0.0.1 --port 0 --threads 0)

get_property(failures GLOBAL PROPERTY lint_cli_failures)
if(failures)
  message(FATAL_ERROR "lint CLI output drifted from the goldens:\n${failures}")
endif()
