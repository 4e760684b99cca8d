# End-to-end smoke test of the ecfrm_cli archive tool, run under ctest:
#   create -> put (object) -> fail -> degraded get-object -> reconstruct ->
#   corrupt -> scrub -> overwrite -> byte-compare everything.
# Invoked as:
#   cmake -DCLI=<path-to-ecfrm_cli> -DSIM=<path-to-ecfrm_sim> -DWORK=<scratch-dir>
#         -P cli_smoke.cmake

function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(ARCH ${WORK}/arch)

# Deterministic 100000-byte payload.
string(REPEAT "ecfrm-cli-smoke-payload-0123456789" 3000 BODY)
string(SUBSTRING "${BODY}" 0 100000 BODY)
file(WRITE ${WORK}/in.bin "${BODY}")

run(${CLI} create ${ARCH} lrc:6,2,2 ecfrm 4096)
run(${CLI} put ${ARCH} ${WORK}/in.bin blob)
run(${CLI} fail ${ARCH} 3)
run(${CLI} get-object ${ARCH} blob ${WORK}/degraded.bin)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK}/in.bin ${WORK}/degraded.bin
                RESULT_VARIABLE cmp)
if(NOT cmp EQUAL 0)
  message(FATAL_ERROR "degraded get-object returned wrong bytes")
endif()

run(${CLI} reconstruct ${ARCH} 3 --trace-out ${WORK}/rebuild_trace.json)
run(${CLI} corrupt ${ARCH} 2 1 17)
run(${CLI} scrub ${ARCH})
run(${CLI} cat ${ARCH} ${WORK}/healed.bin)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK}/in.bin ${WORK}/healed.bin
                RESULT_VARIABLE cmp2)
if(NOT cmp2 EQUAL 0)
  message(FATAL_ERROR "post-scrub cat returned wrong bytes")
endif()

# Overwrite a range and confirm it lands.
file(WRITE ${WORK}/patch.bin "PATCH-THROUGH-CLI")
run(${CLI} overwrite ${ARCH} 500 ${WORK}/patch.bin)
run(${CLI} get ${ARCH} 500 17 ${WORK}/patched.bin)
file(READ ${WORK}/patched.bin PATCHED)
if(NOT PATCHED STREQUAL "PATCH-THROUGH-CLI")
  message(FATAL_ERROR "overwrite did not land: got '${PATCHED}'")
endif()

# Observability: re-run a read with metrics + trace capture and check the
# emitted files are non-empty, structurally balanced JSON.
run(${CLI} get ${ARCH} 0 1000 ${WORK}/obs.bin
    --metrics-out ${WORK}/metrics.json --metrics-prom ${WORK}/metrics.prom
    --trace-out ${WORK}/trace.json)

function(check_balanced path open_re close_re)
  file(READ ${path} body)
  string(LENGTH "${body}" len)
  if(len EQUAL 0)
    message(FATAL_ERROR "${path} is empty")
  endif()
  string(REGEX MATCHALL "${open_re}" opens "${body}")
  string(REGEX MATCHALL "${close_re}" closes "${body}")
  list(LENGTH opens n_open)
  list(LENGTH closes n_close)
  if(n_open EQUAL 0 OR NOT n_open EQUAL n_close)
    message(FATAL_ERROR "${path}: unbalanced ${open_re}${close_re} (${n_open} vs ${n_close})")
  endif()
endfunction()

check_balanced(${WORK}/metrics.json "{" "}")
check_balanced(${WORK}/trace.json "{" "}")
check_balanced(${WORK}/trace.json "\\[" "\\]")

file(READ ${WORK}/metrics.json METRICS)
if(NOT METRICS MATCHES "ecfrm_disk_read_ops_total")
  message(FATAL_ERROR "metrics.json is missing per-disk read counters")
endif()
file(READ ${WORK}/metrics.prom PROM)
if(NOT PROM MATCHES "# TYPE ecfrm_disk_read_ops_total counter")
  message(FATAL_ERROR "metrics.prom is missing the TYPE header")
endif()

# --trace-out writes every request's span tree as one chrome trace: a JSON
# array of complete events, `cat` the request class. Sets out_var to the
# events as "<cat>/<name>" (string(JSON) needs CMake 3.19; older CMake
# matches the raw text instead).
function(trace_events path out_var)
  file(READ ${path} body)
  set(events "")
  if(CMAKE_VERSION VERSION_LESS 3.19)
    string(REGEX MATCHALL "\"name\":\"[^\"]*\",\"cat\":\"[^\"]*\"" pairs "${body}")
    foreach(pair IN LISTS pairs)
      string(REGEX REPLACE "\"name\":\"([^\"]*)\",\"cat\":\"([^\"]*)\"" "\\2/\\1"
             event "${pair}")
      list(APPEND events "${event}")
    endforeach()
  else()
    string(JSON n ERROR_VARIABLE err LENGTH "${body}")
    if(err)
      message(FATAL_ERROR "${path} is not a JSON array: ${err}")
    endif()
    if(n GREATER 0)
      math(EXPR last "${n} - 1")
      foreach(i RANGE ${last})
        string(JSON name GET "${body}" ${i} name)
        string(JSON cat GET "${body}" ${i} cat)
        list(APPEND events "${cat}/${name}")
      endforeach()
    endif()
  endif()
  set(${out_var} "${events}" PARENT_SCOPE)
endfunction()

# Sets out_var to how many of `events` match `regex`.
function(count_events events regex out_var)
  list(FILTER events INCLUDE REGEX "${regex}")
  list(LENGTH events n)
  set(${out_var} ${n} PARENT_SCOPE)
endfunction()

trace_events(${WORK}/trace.json TRACE)
foreach(want "disk\\.batch" "assemble")
  count_events("${TRACE}" "/${want}$" n)
  if(n EQUAL 0)
    message(FATAL_ERROR "trace.json has no '${want}' span: ${TRACE}")
  endif()
endforeach()

# Each rebuild round is one rebuild-class request with its per-disk
# batches.
trace_events(${WORK}/rebuild_trace.json REBUILD)
count_events("${REBUILD}" "^rebuild/disk\\.batch$" n)
if(n EQUAL 0)
  message(FATAL_ERROR "rebuild_trace.json has no rebuild disk.batch span: ${REBUILD}")
endif()

# The simulator traces each trial as one request on its simulated clock.
run(${SIM} rs:6,3 --layout ecfrm --trials 50 --trace-out ${WORK}/sim_trace.json)
trace_events(${WORK}/sim_trace.json SIM_TRACE)
count_events("${SIM_TRACE}" "/trial$" n)
if(NOT n EQUAL 50)
  message(FATAL_ERROR "sim_trace.json should hold 50 trial requests, got ${n}")
endif()

# Plan explainability: explain dumps schema-tagged JSON to stdout with the
# per-disk load vector and decode provenance.
execute_process(COMMAND ${CLI} explain lrc:6,2,2 ecfrm 0 3 --failed 2
                RESULT_VARIABLE rc_ex OUTPUT_VARIABLE EXPLAIN ERROR_VARIABLE explain_err)
if(NOT rc_ex EQUAL 0)
  message(FATAL_ERROR "explain failed (${rc_ex}): ${explain_err}")
endif()
foreach(want "ecfrm.explain.v1" "per_disk_load" "max_load" "fan_out" "batches" "decodes")
  if(NOT EXPLAIN MATCHES "${want}")
    message(FATAL_ERROR "explain output missing '${want}':\n${EXPLAIN}")
  endif()
endforeach()

# SIMD dispatch report: schema-tagged JSON with the feature probe, the
# active tier, and one entry per tier (scalar is always present).
execute_process(COMMAND ${CLI} simd --out ${WORK}/simd.json
                RESULT_VARIABLE rc_simd OUTPUT_VARIABLE simd_table ERROR_VARIABLE simd_err)
if(NOT rc_simd EQUAL 0)
  message(FATAL_ERROR "simd failed (${rc_simd}): ${simd_err}")
endif()
file(READ ${WORK}/simd.json SIMD)
foreach(want "ecfrm.simd.v1" "\"features\"" "\"active_tier\"" "\"tiers\""
        "\"tier\":\"scalar\",\"supported\":true" "addmul_gbps" "encode_gbps")
  if(NOT SIMD MATCHES "${want}")
    message(FATAL_ERROR "simd output missing '${want}':\n${SIMD}")
  endif()
endforeach()

# Online write/repair pipeline: ingest through the online-encode stage,
# repair a failed disk under the threshold scheduler, and emit the
# byte-verified ecfrm.pipeline.v1 state document.
execute_process(COMMAND ${CLI} pipeline --spec rs:4,2 --layout ecfrm --elem 512 --stripes 6
                        --policy threshold --repair-disk 1 --out ${WORK}/pipeline.json
                RESULT_VARIABLE rc_pl OUTPUT_VARIABLE pl_table ERROR_VARIABLE pl_err)
if(NOT rc_pl EQUAL 0)
  message(FATAL_ERROR "pipeline failed (${rc_pl}): ${pl_table}\n${pl_err}")
endif()
file(READ ${WORK}/pipeline.json PIPELINE)
foreach(want "ecfrm.pipeline.v1" "\"policy\":\"threshold\"" "\"pending_stripes\":0"
        "\"max_pending_stripes\"" "\"encoded_stripes\"" "\"sync_encodes\"" "\"repair\":{"
        "\"done\":1" "\"failed\":0" "\"tokens\"" "\"rows_done\"" "\"yields\"")
  if(NOT PIPELINE MATCHES "${want}")
    message(FATAL_ERROR "pipeline output missing '${want}':\n${PIPELINE}")
  endif()
endforeach()
if(NOT pl_table MATCHES "disk 1 repaired")
  message(FATAL_ERROR "pipeline table missing repair line:\n${pl_table}")
endif()

# Concurrent-read server bench: schema-tagged JSON, every read verified
# byte-exactly against the deterministic fill pattern, in both the healthy
# and the degraded (one disk down) configurations.
execute_process(COMMAND ${CLI} serve-bench rs:6,3 ecfrm
                        --threads 4 --requests 8 --seed 3 --out ${WORK}/servebench.json
                RESULT_VARIABLE rc_sb OUTPUT_VARIABLE sb_table ERROR_VARIABLE sb_err)
if(NOT rc_sb EQUAL 0)
  message(FATAL_ERROR "serve-bench failed (${rc_sb}): ${sb_err}")
endif()
file(READ ${WORK}/servebench.json SB)
foreach(want "ecfrm.servebench.v1" "\"threads\":4" "\"requests_ok\":32" "\"io_failures\":0"
        "throughput_mb_s" "p50_us" "p99_us" "\"verified\":true")
  if(NOT SB MATCHES "${want}")
    message(FATAL_ERROR "serve-bench output missing '${want}':\n${SB}")
  endif()
endforeach()

execute_process(COMMAND ${CLI} serve-bench lrc:6,2,2 standard
                        --threads 4 --requests 8 --degraded --seed 3
                        --out ${WORK}/servebench_degraded.json
                RESULT_VARIABLE rc_sbd OUTPUT_VARIABLE sbd_table ERROR_VARIABLE sbd_err)
if(NOT rc_sbd EQUAL 0)
  message(FATAL_ERROR "degraded serve-bench failed (${rc_sbd}): ${sbd_err}")
endif()
file(READ ${WORK}/servebench_degraded.json SBD)
foreach(want "ecfrm.servebench.v1" "\"degraded\":true" "\"io_failures\":0" "\"verified\":true")
  if(NOT SBD MATCHES "${want}")
    message(FATAL_ERROR "degraded serve-bench output missing '${want}':\n${SBD}")
  endif()
endforeach()

# Tail forensics over HTTP: boot a held server on a read, fetch /slo and
# /slow while it holds, and release it via /quitquitquit. The server picks
# an ephemeral port and announces it on stdout.
execute_process(COMMAND bash -c "${CLI} get ${ARCH} 0 1000 ${WORK}/served.bin --serve 0 --serve-hold 30 > ${WORK}/serve.log 2>&1 &"
                RESULT_VARIABLE rc_bg)
if(NOT rc_bg EQUAL 0)
  message(FATAL_ERROR "could not launch held server")
endif()

set(PORT "")
foreach(attempt RANGE 100)
  if(EXISTS ${WORK}/serve.log)
    file(READ ${WORK}/serve.log SERVE_LOG)
    if(SERVE_LOG MATCHES "http://127\\.0\\.0\\.1:([0-9]+)/metrics" )
      set(PORT ${CMAKE_MATCH_1})
      if(SERVE_LOG MATCHES "holding for")
        break()
      endif()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(PORT STREQUAL "")
  file(READ ${WORK}/serve.log SERVE_LOG)
  message(FATAL_ERROR "held server never announced its port:\n${SERVE_LOG}")
endif()

file(DOWNLOAD http://127.0.0.1:${PORT}/slo ${WORK}/slo.json TIMEOUT 10 STATUS slo_status)
list(GET slo_status 0 slo_rc)
if(NOT slo_rc EQUAL 0)
  message(FATAL_ERROR "GET /slo failed: ${slo_status}")
endif()
check_balanced(${WORK}/slo.json "{" "}")
file(READ ${WORK}/slo.json SLO)
foreach(want "ecfrm.slo.v1" "\"classes\"" "\"class\":\"normal\"" "\"p99_us\"" "\"fast_burn\""
        "\"slow_burn\"" "\"budget_remaining\"")
  if(NOT SLO MATCHES "${want}")
    message(FATAL_ERROR "/slo output missing '${want}':\n${SLO}")
  endif()
endforeach()

file(DOWNLOAD http://127.0.0.1:${PORT}/slow ${WORK}/slow.json TIMEOUT 10 STATUS slow_status)
list(GET slow_status 0 slow_rc)
if(NOT slow_rc EQUAL 0)
  message(FATAL_ERROR "GET /slow failed: ${slow_status}")
endif()
check_balanced(${WORK}/slow.json "{" "}")
file(READ ${WORK}/slow.json SLOW)
if(NOT SLOW MATCHES "ecfrm.slow.v1")
  message(FATAL_ERROR "/slow output missing schema tag:\n${SLOW}")
endif()

# The index route lists every endpoint; /disks and /heat serve the live
# heat scoreboard the held read just fed.
file(DOWNLOAD http://127.0.0.1:${PORT}/ ${WORK}/index.txt TIMEOUT 10 STATUS idx_status)
list(GET idx_status 0 idx_rc)
if(NOT idx_rc EQUAL 0)
  message(FATAL_ERROR "GET / failed: ${idx_status}")
endif()
file(READ ${WORK}/index.txt INDEX)
foreach(want "/metrics" "/slo" "/slow" "/disks" "/heat" "/quitquitquit")
  if(NOT INDEX MATCHES "${want}")
    message(FATAL_ERROR "index route missing '${want}':\n${INDEX}")
  endif()
endforeach()

file(DOWNLOAD http://127.0.0.1:${PORT}/disks ${WORK}/disks.json TIMEOUT 10 STATUS disks_status)
list(GET disks_status 0 disks_rc)
if(NOT disks_rc EQUAL 0)
  message(FATAL_ERROR "GET /disks failed: ${disks_status}")
endif()
check_balanced(${WORK}/disks.json "{" "}")
file(READ ${WORK}/disks.json DISKS)
foreach(want "ecfrm.disks.v1" "\"in_flight\"" "\"ewma_latency_us\"" "\"p99_latency_us\""
        "\"straggler\"")
  if(NOT DISKS MATCHES "${want}")
    message(FATAL_ERROR "/disks output missing '${want}':\n${DISKS}")
  endif()
endforeach()

file(DOWNLOAD http://127.0.0.1:${PORT}/heat ${WORK}/heat_route.json TIMEOUT 10 STATUS heat_status)
list(GET heat_status 0 heat_rc)
if(NOT heat_rc EQUAL 0)
  message(FATAL_ERROR "GET /heat failed: ${heat_status}")
endif()
check_balanced(${WORK}/heat_route.json "{" "}")
file(READ ${WORK}/heat_route.json HEATR)
foreach(want "ecfrm.heat.v1" "\"measured_max_load\"" "\"load_factor\"" "\"skew_cov\""
        "\"stragglers\"")
  if(NOT HEATR MATCHES "${want}")
    message(FATAL_ERROR "/heat output missing '${want}':\n${HEATR}")
  endif()
endforeach()

file(DOWNLOAD http://127.0.0.1:${PORT}/quitquitquit ${WORK}/quit.txt TIMEOUT 10)

# Slow-request forensics offline: the slowlog subcommand replays a seeded
# workload and dumps every request's span tree as NDJSON plus the slowest
# one as a standalone chrome://tracing document.
run(${CLI} slowlog ${ARCH} --requests 16 --seed 5
    --out ${WORK}/slow.ndjson --chrome-out ${WORK}/slowreq.json)
file(READ ${WORK}/slow.ndjson SLOWLOG)
foreach(want "\"tree\"" "\"phase_us\"" "\"class\"")
  if(NOT SLOWLOG MATCHES "${want}")
    message(FATAL_ERROR "slowlog NDJSON missing '${want}':\n${SLOWLOG}")
  endif()
endforeach()
check_balanced(${WORK}/slowreq.json "\\[" "\\]")
file(READ ${WORK}/slowreq.json SLOWREQ)
if(NOT SLOWREQ MATCHES "\"ph\":\"X\"")
  message(FATAL_ERROR "slowlog chrome export has no complete events:\n${SLOWREQ}")
endif()

# Live heat offline: the heat subcommand replays a seeded workload with the
# disk scoreboard attached and dumps the same ecfrm.heat.v1 document the
# /heat route serves, plus per-disk NDJSON for log pipelines.
execute_process(COMMAND ${CLI} heat ${ARCH} --requests 24 --seed 7
                        --out ${WORK}/heat.json --ndjson ${WORK}/disks.ndjson
                RESULT_VARIABLE rc_heat OUTPUT_VARIABLE heat_table ERROR_VARIABLE heat_err)
if(NOT rc_heat EQUAL 0)
  message(FATAL_ERROR "heat failed (${rc_heat}): ${heat_err}")
endif()
foreach(want "heat: 24 requests" "ewma_us" "p99_us" "cluster: requests=24"
        "measured_max_load" "load_factor")
  if(NOT heat_table MATCHES "${want}")
    message(FATAL_ERROR "heat table missing '${want}':\n${heat_table}")
  endif()
endforeach()
check_balanced(${WORK}/heat.json "{" "}")
file(READ ${WORK}/heat.json HEAT)
foreach(want "ecfrm.heat.v1" "\"measured_max_load\"" "\"load_factor\"" "\"skew_cov\""
        "\"hottest_disk\"" "\"stragglers\"" "\"disks\"")
  if(NOT HEAT MATCHES "${want}")
    message(FATAL_ERROR "heat.json missing '${want}':\n${HEAT}")
  endif()
endforeach()
file(READ ${WORK}/disks.ndjson NDJSON)
string(REGEX MATCHALL "\"disk\":[0-9]+" ndjson_disks "${NDJSON}")
list(LENGTH ndjson_disks n_disks)
if(NOT n_disks EQUAL 10)
  message(FATAL_ERROR "disks.ndjson should hold 10 per-disk lines, got ${n_disks}:\n${NDJSON}")
endif()
if(NOT NDJSON MATCHES "\"ewma_latency_us\"")
  message(FATAL_ERROR "disks.ndjson missing latency fields:\n${NDJSON}")
endif()

file(REMOVE_RECURSE ${WORK})
message(STATUS "cli smoke test passed")
