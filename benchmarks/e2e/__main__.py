from benchmarks.e2e.cli import main

raise SystemExit(main())
