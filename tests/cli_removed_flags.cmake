# ctest script behind the cli_rejects_removed_flags test: the storage-layout
# flags of the removed columnar segment format must fail loudly (error:
# InvalidArgument, exit 2) instead of being silently ignored.
foreach(flag "--row-format=columnar" "--chunk-block-size=4096"
             "--chunk-codec=snappy")
  execute_process(
    COMMAND ${ANTIMR_CLI} run --workload=wordcount --records=100 ${flag}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_rc EQUAL 2)
    message(FATAL_ERROR "antimr_cli run ${flag}: expected exit 2, got "
                        "${run_rc}:\n${run_out}\n${run_err}")
  endif()
  if(NOT run_err MATCHES "error: InvalidArgument: ")
    message(FATAL_ERROR "antimr_cli run ${flag}: no InvalidArgument error:\n"
                        "${run_err}")
  endif()
endforeach()
