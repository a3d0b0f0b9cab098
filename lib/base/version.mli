(** The one shared version of the toolchain.

    Every CLI ([ntsim], [ntcheck], [ntprof], [ntserved], [ntload],
    [nttop], [ntwal]) reports this string for [--version], so a bug report's
    version pins the whole toolchain, not one binary. *)

val string : string
