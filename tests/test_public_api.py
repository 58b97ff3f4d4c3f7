import importlib
import pkgutil

import oamqkd

# the per-photon API and the HG/LG frame tag, replaced by the batch entry
# points (Flight, ChannelSpec.draw/apply, measure_b*_rows, sample_rows);
# then the preparation devices and the extra Fourier constructions, replaced
# by the columns of build_mub_family
REMOVED = {
    "Frame", "WrongFrame", "ConvertDirection", "modal_convert",
    "measure_b1", "measure_b2", "born_measure", "sample_index",
    "apply_rotation", "apply_time_varying_rotation", "apply_gouy", "apply_loss",
    "apply_frequency_shift", "eve_attack", "apply_channel", "ChannelResult", "EveGuess",
    "prepare_b1", "prepare_b2", "fourier_unitary", "_prepared_flight_states", "_trusted_state",
}


def test_public_names_resolve_and_removed_names_are_gone():
    modules = [oamqkd] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(oamqkd.__path__, "oamqkd.")
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing attributes: {missing}"
        stale = sorted(REMOVED & set(vars(module)))
        assert stale == [], f"{module.__name__} still defines {stale}"
