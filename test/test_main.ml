let () =
  Alcotest.run "sparseq"
    [
      ("semiring", Test_semiring.suite);
      ("enum", Test_enum.suite);
      ("graphs", Test_graphs.suite);
      ("db", Test_db.suite);
      ("logic", Test_logic.suite);
      ("perm", Test_perm.suite);
      ("alloc", Test_alloc.suite);
      ("circuit", Test_circuit.suite);
      ("opt", Test_opt.suite);
      ("compact", Test_compact.suite);
      ("engine", Test_engine.suite);
      ("structural", Test_structural.suite);
      ("shapes", Test_shapes.suite);
      ("fo", Test_fo.suite);
      ("nested", Test_nested.suite);
      ("robust", Test_robust.suite);
      ("recovery", Test_recovery.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("cost", Test_cost.suite);
      ("props", Test_props.suite);
    ]
