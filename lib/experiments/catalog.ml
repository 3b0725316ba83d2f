let all =
  [
    ("t1", "Table 1: routing schemes on doubling graphs", Exp_t1.run);
    ("t2", "Table 2: routing schemes on doubling metrics", Exp_t2.run);
    ("t3", "Table 3: the two routing modes of Theorem 4.2/B.1", Exp_t3.run);
    ("e21", "Theorem 2.1: stretch sweep", Exp_e21.run);
    ("e32", "Theorem 3.2: (0,delta)-triangulation", Exp_e32.run);
    ("e34", "Theorem 3.4: distance labels vs aspect ratio", Exp_e34.run);
    ("e41", "Theorem 4.1: headers vs aspect ratio", Exp_e41.run);
    ("e52a", "Theorem 5.2a: greedy small worlds", Exp_e52.run_a);
    ("e52b", "Theorem 5.2b: sqrt(log Delta) out-degree", Exp_e52.run_b);
    ("e54", "Theorem 5.4: comparison with STRUCTURES", Exp_e54.run);
    ("e55", "Theorem 5.5: single long-range contact", Exp_e55.run);
    ("esub", "Substrate lemmas (1.1-1.4, 1.3, 3.1/A.1)", Exp_esub.run);
    ("fig1", "Figure 1: flow of ideas as live dependencies", Exp_fig1.run);
    ("mer", "Meridian-style object location over rings (Sec 6)", Exp_mer.run);
    ("fault", "Fault injection & graceful degradation sweep", Exp_fault.run);
    ("scale", "Scaling regime: landmark labels over the on-demand oracle", Exp_scale.run);
    ("churn", "Dynamic membership: joins/leaves with incremental repair", Exp_churn.run);
  ]
