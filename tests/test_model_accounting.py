"""Unit tests for model architecture configs, memory and FLOPs accounting."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.model.architecture import MODEL_CATALOG, ModelConfig, get_model_config
from repro.model.flops import (
    attention_flops,
    decode_flops_per_token,
    decode_memory_bytes_per_token,
    mlp_flops,
    prefill_flops,
    prefill_memory_bytes,
)
from repro.model.memory import (
    kv_cache_bytes_per_token,
    parameter_bytes,
    parameter_count,
    weight_bytes_per_layer,
)


class TestArchitecture:
    def test_catalog_contains_llama_family(self):
        for name in ("llama-7b", "llama-13b", "llama-30b"):
            assert name in MODEL_CATALOG

    def test_lookup_case_insensitive(self):
        assert get_model_config("LLaMA-30B") is MODEL_CATALOG["llama-30b"]

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_model_config("gpt-5")

    def test_head_dim(self, model_30b):
        assert model_30b.head_dim == model_30b.hidden_size // model_30b.num_heads

    def test_invalid_head_split_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(name="bad", num_layers=2, hidden_size=100, num_heads=3,
                        num_kv_heads=3, ffn_size=10)

    def test_gqa_requires_divisible_heads(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(name="bad", num_layers=2, hidden_size=128, num_heads=8,
                        num_kv_heads=3, ffn_size=10)


class TestParameterAccounting:
    def test_7b_parameter_count_in_range(self, model_7b):
        count = parameter_count(model_7b)
        assert 6e9 < count < 8e9

    def test_30b_parameter_count_in_range(self, model_30b):
        count = parameter_count(model_30b)
        assert 30e9 < count < 36e9

    def test_parameter_bytes_fp16(self, model_7b):
        assert parameter_bytes(model_7b) == pytest.approx(2 * parameter_count(model_7b))

    def test_larger_models_have_more_parameters(self, model_7b, model_13b, model_30b):
        assert parameter_count(model_7b) < parameter_count(model_13b) < parameter_count(model_30b)

    def test_weight_bytes_per_layer_sums_close_to_total(self, model_30b):
        per_layer_total = weight_bytes_per_layer(model_30b) * model_30b.num_layers
        # Embeddings/LM head are excluded from the per-layer figure.
        assert per_layer_total < parameter_bytes(model_30b)
        assert per_layer_total > 0.85 * parameter_bytes(model_30b)


class TestKVCacheAccounting:
    def test_kv_bytes_per_token_formula(self, model_7b):
        expected = 2 * model_7b.num_layers * model_7b.kv_hidden_size * 2
        assert kv_cache_bytes_per_token(model_7b) == pytest.approx(expected)

    def test_quantized_kv_is_quarter_of_fp16(self, model_7b):
        full = kv_cache_bytes_per_token(model_7b, bits=16)
        quant = kv_cache_bytes_per_token(model_7b, bits=4)
        assert quant == pytest.approx(full / 4)

    def test_invalid_bits_rejected(self, model_7b):
        with pytest.raises(ValueError):
            kv_cache_bytes_per_token(model_7b, bits=3)



class TestFlopsAccounting:
    def test_prefill_flops_superlinear_in_length(self, model_7b):
        # Attention is quadratic, so doubling the prompt more than doubles FLOPs.
        assert prefill_flops(model_7b, 2048) > 2 * prefill_flops(model_7b, 1024)

    def test_prefill_flops_roughly_2_params_tokens(self, model_7b):
        tokens = 512
        flops = prefill_flops(model_7b, tokens)
        approx = 2 * parameter_count(model_7b) * tokens
        assert 0.5 * approx < flops < 2.0 * approx

    def test_decode_flops_grow_with_context(self, model_7b):
        assert decode_flops_per_token(model_7b, 2048) > decode_flops_per_token(model_7b, 128)

    def test_layer_subset_scales_flops(self, model_7b):
        full = mlp_flops(model_7b, 128)
        half = mlp_flops(model_7b, 128, num_layers=model_7b.num_layers // 2)
        assert half == pytest.approx(full / 2)

    def test_attention_flops_zero_for_zero_tokens(self, model_7b):
        assert attention_flops(model_7b, 0, 0) == 0.0

    def test_negative_length_rejected(self, model_7b):
        with pytest.raises(ValueError):
            prefill_flops(model_7b, -1)

    def test_decode_memory_dominated_by_weights_at_small_context(self, model_7b):
        bytes_moved = decode_memory_bytes_per_token(model_7b, context_length=1, batch_size=1)
        assert bytes_moved == pytest.approx(parameter_bytes(model_7b), rel=0.01)

    def test_prefill_memory_includes_kv_write(self, model_7b):
        small = prefill_memory_bytes(model_7b, 128)
        large = prefill_memory_bytes(model_7b, 1024)
        assert large > small
