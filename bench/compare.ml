(* compare — diff two sparseq-bench JSON baselines and flag update-latency
   regressions.

   Usage: dune exec bench/compare.exe -- OLD.json NEW.json [--threshold PCT]
                                         [--strict]

   For every workload present in both files, the sequential update p50 is
   compared; a slowdown beyond the threshold (default 25%) prints a WARN
   line. Warnings never fail the run — absolute latencies are machine- and
   load-dependent, so CI surfaces them for a human instead of gating on
   them. The exit code is nonzero only for malformed input, when either
   file marks a workload unverified, or — under --strict — when a
   workload recorded in the old baseline is missing from the new one
   (coverage must never silently shrink: a renamed or dropped workload
   has to show up in the diff, not vanish from it). A baseline recorded with --smoke is
   not comparable to a full run; the mismatch is reported and the
   comparison downgraded to an informational listing. Fields a baseline
   records beyond the ones read below (older files carry compact_* and
   par_* twin figures) are ignored.

   Stdlib-only on purpose (no JSON dependency is baked into the image):
   the parser below covers exactly the JSON subset Obs.Json emits —
   objects, arrays, strings with backslash escapes, numbers, booleans,
   null. *)

type json =
  | O of (string * json) list
  | A of json list
  | S of string
  | F of float
  | B of bool
  | Null

exception Parse_error of string

let parse (src : string) : json =
  let pos = ref 0 in
  let len = String.length src in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then src.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < len then
      match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub src !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match src.[!pos] with
      | '"' -> advance (); Buffer.contents buf
      | '\\' ->
          advance ();
          (if !pos >= len then fail "unterminated escape");
          (match src.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'u' ->
              (* Obs.Json never emits \u, but accept and keep it verbatim *)
              Buffer.add_string buf "\\u"
          | c -> Buffer.add_char buf c);
          advance ();
          go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < len && num_char src.[!pos] do
      advance ()
    done;
    if start = !pos then fail "expected number";
    match float_of_string_opt (String.sub src start (!pos - start)) with
    | Some f -> F f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); O [] end
        else begin
          let rec members acc =
            expect '"';
            let key = string_body () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); skip_ws (); members ((key, v) :: acc)
            | '}' -> advance (); O (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); A [] end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); A (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elements []
        end
    | '"' -> advance (); S (string_body ())
    | 't' -> literal "true" (B true)
    | 'f' -> literal "false" (B false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> len then fail "trailing bytes";
  v

(* --- baseline access --- *)

let member key = function
  | O fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> Null

let to_float = function F f -> f | _ -> nan
let to_bool = function B b -> b | _ -> false
let to_string = function S s -> s | _ -> ""

type workload = {
  w_name : string;
  p50 : float;
  p99 : float;
  verified : bool;
  gates : float;
  gates_pre : float;  (** nan when the baseline predates the optimizer fields *)
  shrink : float;  (** opt_shrink_pct; nan when absent *)
}

let load path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = parse src in
  let schema = to_string (member "schema" j) in
  if schema <> "sparseq-bench/v1" then begin
    Printf.eprintf "%s: unexpected schema %S\n" path schema;
    exit 2
  end;
  let smoke = to_bool (member "smoke" j) in
  let workloads =
    match member "workloads" j with
    | A ws ->
        List.map
          (fun w ->
            {
              w_name = to_string (member "name" w);
              p50 = to_float (member "update_p50_ns" w);
              p99 = to_float (member "update_p99_ns" w);
              verified = to_bool (member "verified" w);
              gates = to_float (member "gates" w);
              gates_pre = to_float (member "gates_pre_opt" w);
              shrink = to_float (member "opt_shrink_pct" w);
            })
          ws
    | _ -> []
  in
  (smoke, workloads)

let () =
  let threshold = ref 25.0 in
  let strict = ref false in
  let files = ref [] in
  Arg.parse
    [
      ("--threshold", Arg.Set_float threshold, "PCT  regression warning threshold (default 25)");
      ( "--strict",
        Arg.Set strict,
        "  fail (exit nonzero) when a workload in OLD.json is missing from NEW.json" );
    ]
    (fun f -> files := f :: !files)
    "compare OLD.json NEW.json [--threshold PCT] [--strict]";
  let old_path, new_path =
    match List.rev !files with
    | [ o; n ] -> (o, n)
    | _ ->
        prerr_endline "usage: compare OLD.json NEW.json [--threshold PCT]";
        exit 2
  in
  let old_smoke, old_ws = load old_path
  and new_smoke, new_ws = load new_path in
  let comparable = old_smoke = new_smoke in
  if not comparable then
    Printf.printf
      "note: %s is a %s baseline but %s is a %s run — listing, not comparing\n" old_path
      (if old_smoke then "smoke" else "full")
      new_path
      (if new_smoke then "smoke" else "full");
  Printf.printf "%-16s %14s %14s %10s\n" "workload" "old_p50_ns" "new_p50_ns" "delta";
  let warnings = ref 0 and unverified = ref 0 in
  List.iter
    (fun nw ->
      if not nw.verified then incr unverified;
      match List.find_opt (fun ow -> ow.w_name = nw.w_name) old_ws with
      | None -> Printf.printf "%-16s %14s %14.0f %10s\n" nw.w_name "(new)" nw.p50 "-"
      | Some ow ->
          if not ow.verified then incr unverified;
          let delta_pct =
            if ow.p50 > 0. then (nw.p50 -. ow.p50) /. ow.p50 *. 100. else 0.
          in
          Printf.printf "%-16s %14.0f %14.0f %9.1f%%\n" nw.w_name ow.p50 nw.p50 delta_pct;
          if comparable && delta_pct > !threshold then begin
            incr warnings;
            Printf.printf
              "WARN %s: update p50 regressed %.1f%% (%.0fns -> %.0fns, p99 %.0fns -> %.0fns)\n"
              nw.w_name delta_pct ow.p50 nw.p50 ow.p99 nw.p99
          end)
    new_ws;
  let gone = ref [] in
  List.iter
    (fun ow ->
      if not (List.exists (fun nw -> nw.w_name = ow.w_name) new_ws) then begin
        gone := ow.w_name :: !gone;
        Printf.printf "%-16s %14.0f %14s %10s\n" ow.w_name ow.p50 "(gone)" "-"
      end)
    old_ws;
  let gone = List.rev !gone in
  if gone <> [] then
    List.iter
      (fun name ->
        Printf.printf "WARN %s: recorded in %s but missing from %s%s\n" name old_path
          new_path
          (if !strict then " (strict: failing)" else ""))
      gone;
  if !warnings > 0 then
    Printf.printf "%d workload(s) above the %.0f%% regression threshold\n" !warnings !threshold
  else if comparable then Printf.printf "no regressions above %.0f%%\n" !threshold;
  (* informational: optimizer shrink, for baselines that record it (older
     baselines without the pre/post-opt fields simply skip this listing) *)
  let with_opt = List.filter (fun w -> not (Float.is_nan w.shrink)) new_ws in
  if with_opt <> [] then begin
    Printf.printf "optimizer shrink (%s):\n" new_path;
    List.iter
      (fun w ->
        Printf.printf "  %-16s gates %.0f -> %.0f  (%.1f%%)\n" w.w_name w.gates_pre
          w.gates w.shrink)
      with_opt
  end;
  if !unverified > 0 then begin
    Printf.eprintf "%d unverified workload result(s)\n" !unverified;
    exit 1
  end;
  if !strict && gone <> [] then begin
    Printf.eprintf "%d workload(s) missing from %s under --strict\n" (List.length gone)
      new_path;
    exit 1
  end
