let () =
  Alcotest.run "dps-repro"
    [
      ("simcore", Test_simcore.suite);
      ("machine", Test_machine.suite);
      ("sthread", Test_sthread.suite);
      ("sync", Test_sync.suite);
      ("ds", Test_ds.suite);
      ("dps", Test_dps.suite);
      ("faults", Test_faults.suite);
      ("ffwd", Test_ffwd.suite);
      ("workload", Test_workload.suite);
      ("memcached", Test_memcached.suite);
      ("integration", Test_integration.suite);
      ("adapters", Test_adapters.suite);
      ("parsec", Test_parsec.suite);
      ("net", Test_net.suite);
      ("check", Test_check.suite);
      ("cluster", Test_cluster.suite);
      ("frontcache", Test_frontcache.suite);
      ("batch", Test_batch.suite);
      ("obs", Test_obs.suite);
      ("adapt", Test_adapt.suite);
      ("bw", Test_bw.suite);
      ("determinism", Test_determinism.suite);
    ]
