from .evalcli import main
raise SystemExit(main())
