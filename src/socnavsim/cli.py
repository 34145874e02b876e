"""Command-line entry point: train / eval / scenario-gen / replay-export.

main pins BLAS to one thread before numpy loads, so heavy imports stay
in the command handlers; nn.usable_cpus sets the rest of the parallelism.
"""

from __future__ import annotations

import argparse
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    from .evaluation import EXPORT_FORMATS  # imports numpy: main pins the BLAS threads first

    parser = argparse.ArgumentParser(prog="socnavsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a policy stage")
    p_train.add_argument("--config", help="environment config YAML")
    p_train.add_argument("--stage", choices=("ego", "social"), required=True)
    p_train.add_argument("--warm-start", help="checkpoint to initialize from")
    p_train.add_argument("--allow-cold-social", action="store_true",
                         help="permit the social stage without an ego warm start")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=0)
    # no defaults here: an unset flag leaves TrainConfig's / DDPGConfig's own
    p_train.add_argument("--budget", type=int, help="environment steps")
    for flag in ("--update-every", "--batch-size", "--buffer-capacity", "--warmup-steps",
                 "--eval-every", "--checkpoint-every"):
        p_train.add_argument(flag, type=int)
    p_train.add_argument("--early-stop-success", type=float)
    p_train.add_argument("--scenarios", default=None,
                         help="comma list of crowd kinds cycled per episode")

    p_eval = sub.add_parser("eval", help="run a scenario suite and export metrics")
    p_eval.add_argument("--policy", required=True,
                        help="greedy | straight | path to a checkpoint .npz")
    p_eval.add_argument("--suite", required=True)
    p_eval.add_argument("--runs", type=int, default=10)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--config", help="environment config YAML")
    p_eval.add_argument("--out", required=True)

    p_gen = sub.add_parser("scenario-gen", help="sample a scenario snapshot")
    p_gen.add_argument("--suite", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--config", help="environment config YAML")
    p_gen.add_argument("--out", required=True)

    p_rep = sub.add_parser("replay-export", help="convert episode logs to tables")
    p_rep.add_argument("--log", nargs="+", required=True, help="episode log JSON files")
    p_rep.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    p_rep.add_argument("--out", required=True)

    return parser


def _load_env_config(path, parser):
    """The --config file's EnvConfig, or the default one; a missing or
    malformed file is a usage error."""
    import yaml

    from .world import EnvConfig, load_config

    if not path:
        return EnvConfig()
    try:
        return load_config(path)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        parser.error(f"config {path}: {exc}")


def _build_policy(desc: str, env_cfg, parser):
    from .baselines import GreedyPolicy
    from .policies import LearnedPolicy, StraightLinePolicy

    if desc == "greedy":
        return GreedyPolicy(env_cfg.lidar())
    if desc == "straight":
        return StraightLinePolicy()
    if not os.path.exists(desc):
        parser.error(f"policy {desc!r} is neither a known baseline nor a checkpoint file")
    from .lidar import HISTORY_LEN
    from .networks import actor_from_checkpoint, default_network_spec

    try:
        actor, meta = actor_from_checkpoint(desc)
    except (OSError, ValueError) as exc:
        parser.error(f"checkpoint {desc}: {exc}")
    policy = LearnedPolicy(actor, f"learned-{meta.get('stage', 'policy')}")
    scans, beams = policy.feature_shape
    if (scans, beams) != (HISTORY_LEN, env_cfg.beam_count):
        parser.error(
            f"checkpoint was trained on {scans} scans of {beams} beams but the "
            f"environment gives {HISTORY_LEN} of {env_cfg.beam_count}"
        )
    expected = default_network_spec(HISTORY_LEN, env_cfg.beam_count).config_hash()
    if meta.get("config_hash") not in (None, expected):
        print(
            f"warning: checkpoint network hash {meta['config_hash']} differs "
            f"from the default for this config ({expected})",
            file=sys.stderr,
        )
    return policy


def cmd_train(args, parser) -> int:
    from .crowd import SCENARIO_KINDS
    from .ddpg import NETWORK_PARTS, DDPGConfig, TrainConfig, TrainingDiverged, train
    from .networks import load_checkpoint

    if args.stage == "social" and not args.warm_start and not args.allow_cold_social:
        parser.error("--stage social requires --warm-start (or --allow-cold-social)")

    env_cfg = _load_env_config(args.config, parser)
    warm = None
    if args.warm_start:
        try:
            warm, _meta = load_checkpoint(args.warm_start)
        except (OSError, ValueError) as exc:
            parser.error(f"checkpoint {args.warm_start}: {exc}")
        missing = [part for part in NETWORK_PARTS if part not in warm]
        if missing:
            parser.error(f"checkpoint {args.warm_start}: a warm start needs all four networks, "
                         f"it lacks {', '.join(missing)}")

    if args.scenarios:
        cycle = tuple(k.strip() for k in args.scenarios.split(","))
    elif args.stage == "social":
        cycle = SCENARIO_KINDS
    else:
        cycle = (None,)

    def given(**values):
        return {k: v for k, v in values.items() if v is not None}

    try:
        tc = TrainConfig(
            scenario_cycle=cycle,
            ddpg=DDPGConfig(**given(batch_size=args.batch_size, buffer_capacity=args.buffer_capacity)),
            **given(
                total_env_steps=args.budget,
                warmup_steps=args.warmup_steps,
                update_every=args.update_every,
                eval_every=args.eval_every,
                early_stop_success=args.early_stop_success,
                checkpoint_every=args.checkpoint_every,
            ),
        )
        train(args.stage, env_cfg, tc, seed=args.seed, warm_start_parts=warm, out_dir=args.out,
              allow_cold_social=args.allow_cold_social)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc} {exc.diagnostics}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args, parser) -> int:
    from .evaluation import EXPORT_FORMATS, episode_seeds, export, run_episode, suite_config
    from .nn import usable_cpus

    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")
    env_cfg = _load_env_config(args.config, parser)
    try:
        cfg = suite_config(args.suite, env_cfg)
    except ValueError as exc:
        parser.error(str(exc))
    policy = _build_policy(args.policy, cfg, parser)

    os.makedirs(args.out, exist_ok=True)
    work = [(policy, cfg, args.suite, *seeds) for seeds in episode_seeds(args.seed, args.runs)]
    jobs = min(len(work), usable_cpus())  # one per usable CPU: taskset -c … asks for fewer
    if jobs > 1:
        import multiprocessing as mp

        with mp.get_context("spawn").Pool(jobs) as pool:
            logs = pool.starmap(run_episode, work)
    else:
        logs = [run_episode(*w) for w in work]

    for log in logs:
        name = f"log__{args.suite.replace(':', '-')}__{log.policy}__{log.seed}.json"
        log.save(os.path.join(args.out, name))
    for fmt in EXPORT_FORMATS:
        export(logs, fmt, args.out)
    return 0


def cmd_scenario_gen(args, parser) -> int:
    import yaml

    from .evaluation import episode_seeds, suite_config
    from .world import NavEnv

    env_cfg = _load_env_config(args.config, parser)
    try:
        cfg = suite_config(args.suite, env_cfg)
    except ValueError as exc:
        parser.error(str(exc))
    (_, map_seed, crowd_seed), = episode_seeds(args.seed, 1)
    env = NavEnv(cfg)
    env.reset(map_seed=map_seed, crowd_seed=crowd_seed)

    keys = {"circle": ("x", "y", "radius"), "rect": ("x", "y", "heading", "half_width", "length")}
    obstacles = [{"kind": kind, **dict(zip(keys[kind], row))} for kind, row in env.static_map.placements()]
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "map_seed": map_seed,
        "crowd_seed": crowd_seed,
        "start": list(cfg.start),
        "goal": list(cfg.goal),
        "obstacles": obstacles,
        "pedestrians": [
            {"id": i, "x": x, "y": y, "vx": vx, "vy": vy, "radius": r, "pref_speed": s, "goal": [gx, gy]}
            for i, x, y, vx, vy, gx, gy, s, r, *_ in env.crowd.rows
        ],
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"scenario__{args.suite.replace(':', '-')}__{args.seed}.yaml")
    with open(path, "w") as f:
        yaml.safe_dump(doc, f, sort_keys=True)
    print(path)
    return 0


def cmd_replay_export(args, parser) -> int:
    from .evaluation import EpisodeLog, export

    logs = []
    for path in args.log:
        try:
            logs.append(EpisodeLog.load(path))
        except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            parser.error(f"log {path}: {exc}")
    try:
        paths = export(logs, args.format, args.out)
    except ValueError as exc:
        parser.error(str(exc))
    for p in paths:
        print(p)
    return 0


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: one BLAS thread, the same bits at any CPU count
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # numpy seeds only from non-negative ints
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if args.command == "train":
        return cmd_train(args, parser)
    if args.command == "eval":
        return cmd_eval(args, parser)
    if args.command == "scenario-gen":
        return cmd_scenario_gen(args, parser)
    if args.command == "replay-export":
        return cmd_replay_export(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
