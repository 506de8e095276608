import pytest


@pytest.fixture(scope="session")
def preset_config():
    """The config ``<command> --preset <name>`` resolves to, with the seed
    environment variable unset so the preset's own base seed holds."""
    import constbandit.cli as cli  # here, so a missing package fails only the tests that use it

    def resolve(name, command="verify"):
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv(cli.ENV_SEED, raising=False)
            return cli.resolve_config(cli.build_parser().parse_args([command, "--preset", name]))

    return resolve
