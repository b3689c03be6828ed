(** Help-surface snapshot: every `experiments' subcommand answers --help
    with exit 0 and documents its flags — the CLI contract CI and the
    README walkthrough rely on.  Runs the real binary (a test dep). *)

let exe = Filename.concat (Filename.concat ".." "bin") "experiments.exe"

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let help_of sub =
  let out = Filename.temp_file "softft_help" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s --help=plain > %s 2>&1" exe
         (match sub with "" -> "" | s -> Filename.quote s)
         (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (rc, text)

(* Every subcommand, with the flags its help must document.  A flag
   silently dropped from the CLI breaks scripts; this list is the
   snapshot that catches it. *)
let surface =
  [ ("all",
     [ "--trials"; "--seed"; "--benchmarks"; "--domains"; "--quiet";
       "--csv" ]);
    ("study", [ "--trials"; "--seed"; "--benchmarks"; "--domains" ]);
    ("campaign",
     [ "--adaptive"; "--ci"; "--max-trials"; "--bands"; "--journal";
       "--warehouse"; "--progress"; "--trace-timeline"; "--trials"; "--seed";
       "--domains"; "--checkpoint"; "--taint"; "--profile";
       "--progress-jsonl" ]);
    ("coverage", [ "--dynamic"; "--csv"; "--regs-csv"; "--journal" ]);
    ("optimize",
     [ "--budget"; "--beam"; "--checkpoint"; "--validate"; "--ci";
       "--max-trials"; "--warehouse"; "--csv"; "--plan-out" ]);
    ("lint", [ "--benchmarks" ]);
    ("report", [ "--strata"; "--csv" ]);
    ("ingest", [ "--warehouse" ]);
    ("history", [ "--warehouse" ]);
    ("diff-runs", [ "--warehouse" ]);
    ("regress",
     [ "--baseline"; "--current"; "--tolerance"; "--require-same-host" ]);
    ("heatmap", [ "--warehouse"; "--journal"; "--csv"; "--html" ]);
    ("table1", []);
    ("dump", []);
    ("trace", [ "--limit" ]);
    ("trace-fault", [ "--trial" ]) ]

let test_subcommand_help () =
  List.iter
    (fun (sub, flags) ->
      let rc, text = help_of sub in
      Alcotest.(check int) (sub ^ " --help exits 0") 0 rc;
      List.iter
        (fun flag ->
          Alcotest.(check bool)
            (Printf.sprintf "%s --help documents %s" sub flag)
            true (contains text flag))
        flags)
    surface

let test_toplevel_lists_subcommands () =
  let rc, text = help_of "" in
  Alcotest.(check int) "experiments --help exits 0" 0 rc;
  List.iter
    (fun (sub, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "top-level help lists %s" sub)
        true (contains text sub))
    surface

let exit_code args =
  Sys.command (Printf.sprintf "%s %s > /dev/null 2>&1" exe args)

let test_unknown_subcommand_fails () =
  (* Without --help: cmdliner must reject the command, not fall back. *)
  Alcotest.(check bool) "unknown subcommand exits nonzero" true
    (exit_code "no-such-subcommand" <> 0)

let test_retired_subcommands_gone () =
  (* `one' folded into `campaign', `crossval' into `study crossval',
     `bench-diff' into `regress'.  The
     COMMANDS section lists one subcommand per indented line; the
     campaign line proves the pattern matches a listed command. *)
  let _, text = help_of "" in
  let listed sub = contains text ("\n       " ^ sub ^ " ") in
  Alcotest.(check bool) "top-level help lists campaign" true
    (listed "campaign");
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "top-level help no longer lists %s" sub)
        false (listed sub))
    [ "one"; "crossval"; "bench-diff" ]

let test_profile_needs_uniform () =
  (* The adaptive scheduler takes no execution profile: the combination is
     a usage error (cmdliner's 124), rejected before any campaign runs,
     while a uniform campaign accepts the flag. *)
  let base = "campaign g721enc dupval --trials 1 --domains 1 --profile" in
  Alcotest.(check int) "uniform campaign --profile runs" 0 (exit_code base);
  Alcotest.(check int) "campaign --adaptive --profile is a usage error" 124
    (exit_code (base ^ " --adaptive"))

let write_file contents =
  let path = Filename.temp_file "softft_cli" ".json" in
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  path

let bench_snapshot cores =
  write_file
    (Printf.sprintf
       "{\"host_cores\":%d,\"workloads\":[{\"name\":\"kmeans\",\
        \"serial_trials_per_sec\":100,\"parallel_trials_per_sec\":300,\
        \"parallel_speedup\":3}]}\n"
       cores)

let test_regress_bench_stand_down () =
  (* The host-mismatch contract of the bench gate: a warned stand-down
     (stderr names SKIPPED and --require-same-host) that exits 0, and
     exit 1 once --require-same-host is given. *)
  let four = bench_snapshot 4 and eight = bench_snapshot 8 in
  let err = Filename.temp_file "softft_cli" ".err" in
  let args =
    Printf.sprintf "regress --baseline %s --current %s --tolerance 15"
      (Filename.quote four) (Filename.quote eight)
  in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" exe args (Filename.quote err))
  in
  let stderr_text = In_channel.with_open_text err In_channel.input_all in
  Alcotest.(check int) "stand-down exits 0" 0 rc;
  Alcotest.(check bool) "stderr says SKIPPED" true
    (contains stderr_text "SKIPPED");
  Alcotest.(check bool) "stderr points at --require-same-host" true
    (contains stderr_text "--require-same-host");
  Alcotest.(check int) "--require-same-host fails the mismatch" 1
    (exit_code (args ^ " --require-same-host"));
  Alcotest.(check int) "same host passes" 0
    (exit_code
       (Printf.sprintf "regress --baseline %s --current %s --tolerance 15 \
                        --require-same-host"
          (Filename.quote four) (Filename.quote four)));
  List.iter Sys.remove [ four; eight; err ]

let test_regress_mixed_inputs_fail () =
  (* A bench snapshot against a warehouse index is an error, not an
     empty comparison. *)
  let bench = bench_snapshot 2 and index = write_file "" in
  Alcotest.(check int) "bench vs index exits 1" 1
    (exit_code
       (Printf.sprintf "regress --baseline %s --current %s"
          (Filename.quote bench) (Filename.quote index)));
  List.iter Sys.remove [ bench; index ]

let test_regress_missing_paths_fail () =
  (* A typo in a baseline or current path must fail the gate, naming the
     path, not compare two empty indexes and pass. *)
  let err = Filename.temp_file "softft_cli" ".err" in
  let rc =
    Sys.command
      (Printf.sprintf
         "%s regress --baseline no_such_file.jsonl --current missing_dir \
          > /dev/null 2> %s"
         exe (Filename.quote err))
  in
  let stderr_text = In_channel.with_open_text err In_channel.input_all in
  Alcotest.(check bool) "missing paths exit non-zero" true (rc <> 0);
  Alcotest.(check bool) "stderr names the missing path" true
    (contains stderr_text "no_such_file.jsonl");
  let index = write_file "" in
  Alcotest.(check bool) "missing current alone exits non-zero" true
    (exit_code
       (Printf.sprintf "regress --baseline %s --current missing_dir"
          (Filename.quote index))
     <> 0);
  List.iter Sys.remove [ index; err ]

let test_regress_nothing_shared () =
  (* Two indexes with no run in common compare nothing: a warned
     stand-down, never a silent green gate, and an error under
     --require-same-host. *)
  let empty () = Filename.temp_file "softft_cli" "index.jsonl" in
  let base = empty () and curr = empty () in
  let err = Filename.temp_file "softft_cli" ".err" in
  let args =
    Printf.sprintf "regress --baseline %s --current %s" (Filename.quote base)
      (Filename.quote curr)
  in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" exe args (Filename.quote err))
  in
  let stderr_text = In_channel.with_open_text err In_channel.input_all in
  Alcotest.(check int) "stand-down exits 0" 0 rc;
  Alcotest.(check bool) "stderr says SKIPPED" true
    (contains stderr_text "SKIPPED");
  Alcotest.(check int) "--require-same-host fails it" 1
    (exit_code (args ^ " --require-same-host"));
  List.iter Sys.remove [ base; curr; err ]

let tests =
  [ Alcotest.test_case "every subcommand's --help" `Quick
      test_subcommand_help;
    Alcotest.test_case "top-level help lists all subcommands" `Quick
      test_toplevel_lists_subcommands;
    Alcotest.test_case "unknown subcommand" `Quick
      test_unknown_subcommand_fails;
    Alcotest.test_case "retired subcommands" `Quick
      test_retired_subcommands_gone;
    Alcotest.test_case "--profile rejects --adaptive" `Quick
      test_profile_needs_uniform;
    Alcotest.test_case "regress: bench host stand-down" `Quick
      test_regress_bench_stand_down;
    Alcotest.test_case "regress: bench vs index fails" `Quick
      test_regress_mixed_inputs_fail;
    Alcotest.test_case "regress: missing paths fail" `Quick
      test_regress_missing_paths_fail;
    Alcotest.test_case "regress: nothing shared stands down" `Quick
      test_regress_nothing_shared ]
